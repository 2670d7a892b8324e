//! Configuration of a HIGGS summary: the [`HiggsConfig`] parameter set, the
//! [`HiggsConfigBuilder`] fluent constructor, and the [`ConfigError`]
//! validation diagnostics.

use higgs_common::hashing::FingerprintLayout;
use std::fmt;
use std::time::Duration;

/// Upper bound on [`HiggsConfig::admission_tick`]: a tick longer than this
/// adds more queueing delay than any plausible coalescing win (the serving
/// layer's whole point is sub-tick latency), so validation rejects it as a
/// likely units mistake (seconds where milliseconds were meant).
pub const MAX_ADMISSION_TICK: Duration = Duration::from_millis(100);

/// Durability policy of the per-shard write-ahead journal (see the
/// [`journal`](crate::journal) module). Selected via
/// [`HiggsConfigBuilder::journal_mode`]; the default is [`Off`](Self::Off),
/// so existing deployments pay nothing until they opt in.
///
/// Like `pin_workers` and the serving knobs, the journal mode is **runtime
/// durability state** of the serving process: it is never persisted in
/// snapshots, and a restored service defaults to `Off` unless the caller
/// re-arms journaling through the durable restore path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JournalMode {
    /// No journal: mutations exist only in memory between snapshots (the
    /// pre-journal behaviour, and the default).
    #[default]
    Off,
    /// Append every record through a buffered writer, flushing to the OS on
    /// every append but never forcing the disk (`fsync`). Survives process
    /// crashes; an OS crash may lose the buffered tail.
    Buffered,
    /// Like [`Buffered`](Self::Buffered), plus an `fsync` every `n` records
    /// (`n ≥ 1`; `SyncEveryN(1)` syncs every append). Bounds loss on OS
    /// crash or power failure to the last `n - 1` records per shard.
    SyncEveryN(u32),
}

/// Why a [`HiggsConfig`] was rejected by validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `d1` must be a power of two no smaller than 2 (matrix addresses are
    /// the low bits of the vertex hash).
    InvalidMatrixSide {
        /// The rejected `d1` value.
        d1: u64,
    },
    /// `F1` must lie in `[R, 31]`: at least `R` bits must be available to
    /// convert into address bits per level climbed, and fingerprints are
    /// stored in 32-bit halves.
    InvalidFingerprintBits {
        /// The rejected `F1` value.
        f1_bits: u32,
        /// The configured `R` value it was checked against.
        r_bits: u32,
    },
    /// `R` must lie in `[1, 8]` (the branching factor is `θ = 4^R`).
    InvalidAddressBits {
        /// The rejected `R` value.
        r_bits: u32,
    },
    /// `b` must lie in `[1, 255]`: per-bucket occupancy is stored as `u8` in
    /// the flat slab layout.
    InvalidBucketEntries {
        /// The rejected `b` value.
        bucket_entries: usize,
    },
    /// `r` must lie in `[1, MAX_MAPPING]`: MMB index pairs are stored as two
    /// `u8` halves of a `u16`.
    InvalidMappingAddresses {
        /// The rejected `r` value.
        mapping_addresses: u32,
    },
    /// `shards` must lie in `[1, MAX_SHARDS]`: every shard owns a writer
    /// thread, so the count is bounded.
    InvalidShardCount {
        /// The rejected shard count.
        shards: usize,
    },
    /// `ingest_queue_cap` must be at least 1 when set: a zero-capacity
    /// writer queue could never accept a command, deadlocking the first
    /// producer. Use `None` (the default) for unbounded queues.
    InvalidIngestQueueCap,
    /// `admission_tick` must not exceed [`MAX_ADMISSION_TICK`]: longer ticks
    /// add pure queueing delay without any additional coalescing benefit and
    /// almost always indicate a units mistake.
    InvalidAdmissionTick {
        /// The rejected tick duration.
        admission_tick: Duration,
    },
    /// `service_queue_depth` must be at least 1 when set: a zero-capacity
    /// submission queue could never admit a request, so every submission
    /// would fail with backpressure. Use `None` (the default) for an
    /// unbounded submission queue.
    InvalidServiceQueueDepth,
    /// `journal_mode` was `SyncEveryN(0)`: a zero sync interval is
    /// meaningless (use `SyncEveryN(1)` to sync every record, or `Buffered`
    /// to never force the disk).
    InvalidJournalSyncInterval,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::InvalidMatrixSide { d1 } => {
                write!(f, "d1 must be a power of two >= 2, got {d1}")
            }
            ConfigError::InvalidFingerprintBits { f1_bits, r_bits } => {
                write!(f, "F1 must be in [R, 31] = [{r_bits}, 31], got {f1_bits}")
            }
            ConfigError::InvalidAddressBits { r_bits } => {
                write!(f, "R must be in [1, 8], got {r_bits}")
            }
            ConfigError::InvalidBucketEntries { bucket_entries } => {
                write!(f, "b must be in [1, 255], got {bucket_entries}")
            }
            ConfigError::InvalidMappingAddresses { mapping_addresses } => {
                write!(
                    f,
                    "r must be in [1, {}], got {mapping_addresses}",
                    crate::matrix::MAX_MAPPING
                )
            }
            ConfigError::InvalidShardCount { shards } => {
                write!(
                    f,
                    "shards must be in [1, {}], got {shards}",
                    crate::shard::MAX_SHARDS
                )
            }
            ConfigError::InvalidIngestQueueCap => {
                write!(
                    f,
                    "ingest_queue_cap must be at least 1 when set \
                     (use None for unbounded ingest queues)"
                )
            }
            ConfigError::InvalidAdmissionTick { admission_tick } => {
                write!(
                    f,
                    "admission_tick must be at most {:?}, got {admission_tick:?}",
                    MAX_ADMISSION_TICK
                )
            }
            ConfigError::InvalidServiceQueueDepth => {
                write!(
                    f,
                    "service_queue_depth must be at least 1 when set \
                     (use None for an unbounded submission queue)"
                )
            }
            ConfigError::InvalidJournalSyncInterval => {
                write!(
                    f,
                    "journal_mode sync interval must be at least 1 \
                     (SyncEveryN(1) syncs every record; use Buffered to never fsync)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Tunable parameters of a [`HiggsSummary`](crate::HiggsSummary).
///
/// The defaults follow Section VI-A of the paper: leaf matrix side `d1 = 16`,
/// fingerprint length `F1 = 19` bits, `b = 3` entries per bucket, `r = 4`
/// mapping addresses per vertex (so each edge has 4×4 candidate buckets and a
/// 4-bit index pair), and `θ = 4` children per node (`R = 1` fingerprint bit
/// converted to address bits per level).
///
/// Construct one with [`HiggsConfig::builder`] for validated, fallible
/// construction (`Result<_, ConfigError>`), or start from
/// [`HiggsConfig::paper_default`] and adjust fields / apply the ablation
/// helpers.
///
/// The full parameter set is persisted in snapshots (see
/// [`snapshot`](crate::snapshot)) and re-validated on restore — a restored
/// summary or service is always built from a configuration that passes
/// [`validate`](Self::validate), and corrupt persisted parameters surface as
/// [`SnapshotError::Config`](crate::SnapshotError::Config).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HiggsConfig {
    /// Leaf-layer compressed-matrix side `d1` (power of two).
    pub d1: u64,
    /// Leaf-layer fingerprint length `F1` in bits (per endpoint, ≤ 31).
    pub f1_bits: u32,
    /// Fingerprint bits converted into address bits per level climbed (`R`);
    /// the branching factor is `θ = 4^R`.
    pub r_bits: u32,
    /// Number of entries per bucket (`b`).
    pub bucket_entries: usize,
    /// Number of mapping addresses per vertex (`r`) for the Multiple Mapping
    /// Buckets optimisation; `1` disables MMB.
    pub mapping_addresses: u32,
    /// Whether overflow blocks absorb same-timestamp bursts (Section IV-C).
    ///
    /// Overflow blocks share the leaf matrix side `d1` (so their entries lift
    /// into ancestor aggregates without losing address bits) but use a single
    /// entry per bucket, keeping each block small.
    pub overflow_blocks: bool,
    /// Number of shards a [`ShardedHiggs`](crate::ShardedHiggs) built from
    /// this configuration partitions the summary into (by hash of the source
    /// vertex). `1` means a single unsharded summary; plain
    /// [`HiggsSummary`](crate::HiggsSummary) construction ignores the field.
    pub shards: usize,
    /// Number of query plans the cross-batch [`PlanCache`](crate::PlanCache)
    /// retains per summary (LRU, epoch-invalidated; see the
    /// [`plan_cache`](crate::plan_cache) module docs). `0` disables plan
    /// caching entirely — every typed query then rebuilds its plan, which is
    /// the reference behaviour the cache is tested against. In a
    /// [`ShardedHiggs`](crate::ShardedHiggs) **each shard** owns a cache of
    /// this capacity.
    pub plan_cache_capacity: usize,
    /// Capacity (in commands) of each shard's ingest queue in a
    /// [`ShardedHiggs`](crate::ShardedHiggs). `None` (the default) keeps the
    /// writer channels unbounded; `Some(n)` makes producers **block** once a
    /// shard's writer is `n` commands behind, turning sustained overload into
    /// backpressure instead of unbounded memory growth. One command is one
    /// edge, one deletion, or one routed batch of up to 512 edges, so the
    /// worst-case buffered footprint per shard is `n × 512` edges. Plain
    /// [`HiggsSummary`](crate::HiggsSummary) construction ignores the field.
    pub ingest_queue_cap: Option<usize>,
    /// Whether a [`ShardedHiggs`](crate::ShardedHiggs) pins each shard's
    /// writer thread to one core (`shard_index % available_cores`), keeping
    /// each shard's matrix slabs resident in a single core's private cache. A
    /// standalone [`ParallelHiggs`](crate::ParallelHiggs) pins its workers
    /// to core 0 when set. Pinning is best-effort (a no-op on platforms
    /// without affinity syscalls — see [`higgs_common::affinity`]) and is
    /// **runtime placement state**: it is never persisted in snapshots, and
    /// restored services default to unpinned. Defaults to `false`.
    pub pin_workers: bool,
    /// How long a [`HiggsService`](crate::HiggsService) admission loop waits
    /// after the first queued submission before closing the tick, so that
    /// concurrent clients' queries land in the same coalesced per-shard
    /// batch. `Duration::ZERO` (the default) closes a tick as soon as the
    /// queue momentarily drains — maximum responsiveness, coalescing only
    /// what is already queued; larger values trade per-request latency for
    /// wider cross-client plan/probe sharing. Must not exceed
    /// [`MAX_ADMISSION_TICK`]. Like `pin_workers` this is **runtime serving
    /// state**: never persisted in snapshots, and restored services default
    /// to a zero tick. Plain summary construction ignores the field.
    pub admission_tick: Duration,
    /// Capacity (in submissions) of a [`HiggsService`](crate::HiggsService)
    /// submission queue. `None` (the default) keeps the queue unbounded;
    /// `Some(n)` makes `submit` fail fast with a typed overload error once
    /// `n` submissions are waiting for admission, turning sustained query
    /// overload into explicit backpressure the client can act on. Runtime
    /// serving state: never persisted in snapshots. Plain summary
    /// construction ignores the field.
    pub service_queue_depth: Option<usize>,
    /// Durability policy of the per-shard write-ahead journal a *durable*
    /// [`ShardedHiggs`](crate::ShardedHiggs) keeps alongside its snapshot
    /// directory (see the [`journal`](crate::journal) module and
    /// [`Store::open`](crate::Store::open)).
    /// [`JournalMode::Off`] (the default) disables journaling entirely.
    /// Runtime durability state: never persisted in snapshots — a restored
    /// service journals only when restored through the durable path. Plain
    /// summary construction ignores the field.
    pub journal_mode: JournalMode,
}

impl Default for HiggsConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl HiggsConfig {
    /// The configuration used throughout the paper's experiments
    /// (Section VI-A).
    pub fn paper_default() -> Self {
        Self {
            d1: 16,
            f1_bits: 19,
            r_bits: 1,
            bucket_entries: 3,
            mapping_addresses: 4,
            overflow_blocks: true,
            shards: 1,
            plan_cache_capacity: crate::plan_cache::DEFAULT_PLAN_CACHE_CAPACITY,
            ingest_queue_cap: None,
            pin_workers: false,
            admission_tick: Duration::ZERO,
            service_queue_depth: None,
            journal_mode: JournalMode::Off,
        }
    }

    /// Starts a fluent, validated builder seeded with the paper-default
    /// parameters.
    ///
    /// ```
    /// use higgs::HiggsConfig;
    ///
    /// let config = HiggsConfig::builder()
    ///     .d1(64)
    ///     .bucket_entries(2)
    ///     .build()
    ///     .expect("valid configuration");
    /// assert_eq!(config.d1, 64);
    ///
    /// assert!(HiggsConfig::builder().d1(12).build().is_err());
    /// ```
    pub fn builder() -> HiggsConfigBuilder {
        HiggsConfigBuilder {
            config: Self::paper_default(),
        }
    }

    /// A configuration with Multiple Mapping Buckets disabled (used by the
    /// Fig. 20b ablation).
    pub fn without_mmb(mut self) -> Self {
        self.mapping_addresses = 1;
        self
    }

    /// A configuration with overflow blocks disabled (used by the Fig. 20b
    /// ablation).
    pub fn without_overflow_blocks(mut self) -> Self {
        self.overflow_blocks = false;
        self
    }

    /// A configuration with a different leaf matrix side (the Fig. 21
    /// parameter sweep).
    pub fn with_d1(mut self, d1: u64) -> Self {
        self.d1 = d1;
        self
    }

    /// The branching factor `θ = 4^R`.
    pub fn theta(&self) -> usize {
        1usize << (2 * self.r_bits)
    }

    /// Number of entries a leaf matrix can hold (`b · d1²`).
    pub fn leaf_capacity(&self) -> usize {
        self.bucket_entries * (self.d1 * self.d1) as usize
    }

    /// The fingerprint/address bit layout shared by all layers.
    pub fn layout(&self) -> FingerprintLayout {
        FingerprintLayout::new(self.f1_bits, self.d1, self.r_bits)
    }

    /// The core shard `shard_index`'s threads pin to under
    /// [`pin_workers`](Self::pin_workers): shards round-robin over the cores
    /// the process may run on, and `None` disables pinning.
    pub(crate) fn pin_core(&self, shard_index: usize) -> Option<usize> {
        self.pin_workers
            .then(|| shard_index % higgs_common::affinity::available_cores())
    }

    /// Validates the configuration, returning the first violated constraint.
    ///
    /// Called by [`HiggsSummary::try_new`](crate::HiggsSummary::try_new) and
    /// [`HiggsConfigBuilder::build`]; the panicking convenience path
    /// ([`HiggsSummary::new`](crate::HiggsSummary::new)) surfaces the same
    /// diagnostics through `expect`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.d1.is_power_of_two() || self.d1 < 2 {
            return Err(ConfigError::InvalidMatrixSide { d1: self.d1 });
        }
        if !(1..=8).contains(&self.r_bits) {
            return Err(ConfigError::InvalidAddressBits {
                r_bits: self.r_bits,
            });
        }
        if self.f1_bits < self.r_bits || self.f1_bits > 31 {
            return Err(ConfigError::InvalidFingerprintBits {
                f1_bits: self.f1_bits,
                r_bits: self.r_bits,
            });
        }
        // Bounds shared with CompressedMatrix::new: per-bucket occupancy is
        // stored as u8 and MMB index pairs as two u8 halves of a u16.
        if !(1..=u8::MAX as usize).contains(&self.bucket_entries) {
            return Err(ConfigError::InvalidBucketEntries {
                bucket_entries: self.bucket_entries,
            });
        }
        if !(1..=crate::matrix::MAX_MAPPING as u32).contains(&self.mapping_addresses) {
            return Err(ConfigError::InvalidMappingAddresses {
                mapping_addresses: self.mapping_addresses,
            });
        }
        if !(1..=crate::shard::MAX_SHARDS).contains(&self.shards) {
            return Err(ConfigError::InvalidShardCount {
                shards: self.shards,
            });
        }
        if self.ingest_queue_cap == Some(0) {
            return Err(ConfigError::InvalidIngestQueueCap);
        }
        if self.admission_tick > MAX_ADMISSION_TICK {
            return Err(ConfigError::InvalidAdmissionTick {
                admission_tick: self.admission_tick,
            });
        }
        if self.service_queue_depth == Some(0) {
            return Err(ConfigError::InvalidServiceQueueDepth);
        }
        if self.journal_mode == JournalMode::SyncEveryN(0) {
            return Err(ConfigError::InvalidJournalSyncInterval);
        }
        Ok(())
    }
}

/// Fluent, validated constructor for [`HiggsConfig`], started with
/// [`HiggsConfig::builder`]. Every knob defaults to the paper's Section VI-A
/// value; [`build`](Self::build) returns `Err(ConfigError)` instead of
/// panicking on invalid combinations.
#[derive(Clone, Copy, Debug)]
pub struct HiggsConfigBuilder {
    config: HiggsConfig,
}

impl HiggsConfigBuilder {
    /// Sets the leaf-layer matrix side `d1` (must be a power of two ≥ 2).
    pub fn d1(mut self, d1: u64) -> Self {
        self.config.d1 = d1;
        self
    }

    /// Sets the leaf-layer fingerprint length `F1` in bits (must lie in
    /// `[R, 31]`).
    pub fn f1_bits(mut self, f1_bits: u32) -> Self {
        self.config.f1_bits = f1_bits;
        self
    }

    /// Sets `R`, the fingerprint bits converted into address bits per level
    /// (branching factor `θ = 4^R`; must lie in `[1, 8]`).
    pub fn r_bits(mut self, r_bits: u32) -> Self {
        self.config.r_bits = r_bits;
        self
    }

    /// Sets `b`, the number of entries per bucket (must lie in `[1, 255]`).
    pub fn bucket_entries(mut self, bucket_entries: usize) -> Self {
        self.config.bucket_entries = bucket_entries;
        self
    }

    /// Sets `r`, the number of MMB mapping addresses per vertex (`1`
    /// disables MMB).
    pub fn mapping_addresses(mut self, mapping_addresses: u32) -> Self {
        self.config.mapping_addresses = mapping_addresses;
        self
    }

    /// Enables or disables overflow blocks (Section IV-C).
    pub fn overflow_blocks(mut self, enabled: bool) -> Self {
        self.config.overflow_blocks = enabled;
        self
    }

    /// Sets the number of shards a [`ShardedHiggs`](crate::ShardedHiggs)
    /// partitions the summary into (must lie in `[1, MAX_SHARDS]`; `1` keeps
    /// a single unsharded summary).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Sets how many query plans the cross-batch plan cache retains per
    /// summary (LRU; `0` disables caching). Defaults to
    /// [`DEFAULT_PLAN_CACHE_CAPACITY`](crate::plan_cache::DEFAULT_PLAN_CACHE_CAPACITY).
    pub fn plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.config.plan_cache_capacity = capacity;
        self
    }

    /// Bounds each shard's ingest queue at `cap` commands (must be ≥ 1):
    /// producers that outrun a shard's writer block instead of growing the
    /// queue without bound. The default keeps the queues unbounded.
    pub fn ingest_queue_cap(mut self, cap: usize) -> Self {
        self.config.ingest_queue_cap = Some(cap);
        self
    }

    /// Pins each shard's writer thread to one core; see
    /// [`HiggsConfig::pin_workers`]. Best-effort, defaults to
    /// off, and never persisted in snapshots.
    pub fn pin_workers(mut self, pin: bool) -> Self {
        self.config.pin_workers = pin;
        self
    }

    /// Sets how long a [`HiggsService`](crate::HiggsService) admission loop
    /// holds a tick open to coalesce concurrent clients' queries (must not
    /// exceed [`MAX_ADMISSION_TICK`]; `Duration::ZERO`, the default, closes
    /// the tick as soon as the submission queue momentarily drains).
    pub fn admission_tick(mut self, tick: Duration) -> Self {
        self.config.admission_tick = tick;
        self
    }

    /// Bounds a [`HiggsService`](crate::HiggsService) submission queue at
    /// `depth` waiting submissions (must be ≥ 1): further `submit` calls
    /// fail fast with a typed overload error instead of queueing without
    /// bound. The default keeps the submission queue unbounded.
    pub fn service_queue_depth(mut self, depth: usize) -> Self {
        self.config.service_queue_depth = Some(depth);
        self
    }

    /// Sets the write-ahead journal durability policy a durable
    /// [`ShardedHiggs`](crate::ShardedHiggs) uses (see [`JournalMode`];
    /// `SyncEveryN` requires an interval ≥ 1). Defaults to
    /// [`JournalMode::Off`] and is never persisted in snapshots.
    pub fn journal_mode(mut self, mode: JournalMode) -> Self {
        self.config.journal_mode = mode;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<HiggsConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_6a() {
        let c = HiggsConfig::paper_default();
        assert_eq!(c.d1, 16);
        assert_eq!(c.f1_bits, 19);
        assert_eq!(c.bucket_entries, 3);
        assert_eq!(c.mapping_addresses, 4);
        assert_eq!(c.theta(), 4);
        assert_eq!(c.leaf_capacity(), 3 * 256);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn builder_defaults_to_paper_parameters() {
        let built = HiggsConfig::builder().build().expect("defaults are valid");
        assert_eq!(built, HiggsConfig::paper_default());
    }

    #[test]
    fn builder_sets_every_knob() {
        let c = HiggsConfig::builder()
            .d1(64)
            .f1_bits(21)
            .r_bits(2)
            .bucket_entries(4)
            .mapping_addresses(2)
            .overflow_blocks(false)
            .shards(4)
            .plan_cache_capacity(16)
            .ingest_queue_cap(1_024)
            .pin_workers(true)
            .admission_tick(Duration::from_micros(250))
            .service_queue_depth(4_096)
            .journal_mode(JournalMode::SyncEveryN(64))
            .build()
            .expect("valid configuration");
        assert_eq!(c.d1, 64);
        assert_eq!(c.f1_bits, 21);
        assert_eq!(c.r_bits, 2);
        assert_eq!(c.theta(), 16);
        assert_eq!(c.bucket_entries, 4);
        assert_eq!(c.mapping_addresses, 2);
        assert!(!c.overflow_blocks);
        assert_eq!(c.shards, 4);
        assert_eq!(c.plan_cache_capacity, 16);
        assert_eq!(c.ingest_queue_cap, Some(1_024));
        assert!(c.pin_workers);
        assert_eq!(c.admission_tick, Duration::from_micros(250));
        assert_eq!(c.service_queue_depth, Some(4_096));
        assert_eq!(c.journal_mode, JournalMode::SyncEveryN(64));
    }

    #[test]
    fn pin_workers_defaults_off() {
        assert!(!HiggsConfig::paper_default().pin_workers);
        let built = HiggsConfig::builder().build().expect("valid");
        assert!(!built.pin_workers);
    }

    #[test]
    fn plan_cache_defaults_and_disabling() {
        let c = HiggsConfig::paper_default();
        assert_eq!(
            c.plan_cache_capacity,
            crate::plan_cache::DEFAULT_PLAN_CACHE_CAPACITY
        );
        assert_eq!(c.ingest_queue_cap, None);
        // Capacity 0 is a valid configuration: it disables caching.
        assert!(HiggsConfig::builder()
            .plan_cache_capacity(0)
            .build()
            .is_ok());
    }

    #[test]
    fn zero_ingest_queue_cap_rejected() {
        assert_eq!(
            HiggsConfig::builder().ingest_queue_cap(0).build(),
            Err(ConfigError::InvalidIngestQueueCap)
        );
        assert!(HiggsConfig::builder().ingest_queue_cap(1).build().is_ok());
    }

    #[test]
    fn serving_knobs_default_to_inert_values() {
        let c = HiggsConfig::paper_default();
        assert_eq!(c.admission_tick, Duration::ZERO);
        assert_eq!(c.service_queue_depth, None);
        assert_eq!(c.journal_mode, JournalMode::Off);
        assert_eq!(JournalMode::default(), JournalMode::Off);
    }

    #[test]
    fn zero_journal_sync_interval_rejected() {
        assert_eq!(
            HiggsConfig::builder()
                .journal_mode(JournalMode::SyncEveryN(0))
                .build(),
            Err(ConfigError::InvalidJournalSyncInterval)
        );
        // Every-record sync and the non-syncing modes are all valid.
        for mode in [
            JournalMode::SyncEveryN(1),
            JournalMode::Buffered,
            JournalMode::Off,
        ] {
            assert!(HiggsConfig::builder().journal_mode(mode).build().is_ok());
        }
    }

    #[test]
    fn oversized_admission_tick_rejected() {
        let too_long = MAX_ADMISSION_TICK + Duration::from_millis(1);
        assert_eq!(
            HiggsConfig::builder().admission_tick(too_long).build(),
            Err(ConfigError::InvalidAdmissionTick {
                admission_tick: too_long
            })
        );
        // The bound itself is accepted.
        assert!(HiggsConfig::builder()
            .admission_tick(MAX_ADMISSION_TICK)
            .build()
            .is_ok());
    }

    #[test]
    fn zero_service_queue_depth_rejected() {
        assert_eq!(
            HiggsConfig::builder().service_queue_depth(0).build(),
            Err(ConfigError::InvalidServiceQueueDepth)
        );
        assert!(HiggsConfig::builder()
            .service_queue_depth(1)
            .build()
            .is_ok());
    }

    #[test]
    fn ablation_helpers() {
        let c = HiggsConfig::paper_default().without_mmb();
        assert_eq!(c.mapping_addresses, 1);
        let c = HiggsConfig::paper_default().without_overflow_blocks();
        assert!(!c.overflow_blocks);
        let c = HiggsConfig::paper_default().with_d1(64);
        assert_eq!(c.d1, 64);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn layout_is_consistent_with_config() {
        let c = HiggsConfig::paper_default();
        let layout = c.layout();
        assert_eq!(layout.theta(), c.theta());
        assert_eq!(layout.matrix_side(1), c.d1);
        assert_eq!(layout.fingerprint_bits(1), c.f1_bits);
    }

    #[test]
    fn invalid_d1_rejected() {
        assert_eq!(
            HiggsConfig::builder().d1(12).build(),
            Err(ConfigError::InvalidMatrixSide { d1: 12 })
        );
        assert_eq!(
            HiggsConfig::builder().d1(1).build(),
            Err(ConfigError::InvalidMatrixSide { d1: 1 })
        );
    }

    #[test]
    fn invalid_fingerprint_and_address_bits_rejected() {
        assert_eq!(
            HiggsConfig::builder().f1_bits(32).build(),
            Err(ConfigError::InvalidFingerprintBits {
                f1_bits: 32,
                r_bits: 1
            })
        );
        assert_eq!(
            HiggsConfig::builder().r_bits(3).f1_bits(2).build(),
            Err(ConfigError::InvalidFingerprintBits {
                f1_bits: 2,
                r_bits: 3
            })
        );
        assert_eq!(
            HiggsConfig::builder().r_bits(0).build(),
            Err(ConfigError::InvalidAddressBits { r_bits: 0 })
        );
        assert_eq!(
            HiggsConfig::builder().r_bits(9).build(),
            Err(ConfigError::InvalidAddressBits { r_bits: 9 })
        );
    }

    #[test]
    fn invalid_bucket_entries_rejected() {
        assert_eq!(
            HiggsConfig::builder().bucket_entries(0).build(),
            Err(ConfigError::InvalidBucketEntries { bucket_entries: 0 })
        );
        // Occupancy counts are stored as u8 in the slab layout; validation
        // must fail instead of letting leaf construction panic later.
        assert_eq!(
            HiggsConfig::builder().bucket_entries(256).build(),
            Err(ConfigError::InvalidBucketEntries {
                bucket_entries: 256
            })
        );
    }

    #[test]
    fn invalid_mapping_addresses_rejected() {
        let err = HiggsConfig::builder().mapping_addresses(0).build();
        assert_eq!(
            err,
            Err(ConfigError::InvalidMappingAddresses {
                mapping_addresses: 0
            })
        );
    }

    #[test]
    fn invalid_shard_count_rejected() {
        assert_eq!(
            HiggsConfig::builder().shards(0).build(),
            Err(ConfigError::InvalidShardCount { shards: 0 })
        );
        assert_eq!(
            HiggsConfig::builder()
                .shards(crate::shard::MAX_SHARDS + 1)
                .build(),
            Err(ConfigError::InvalidShardCount {
                shards: crate::shard::MAX_SHARDS + 1
            })
        );
        assert!(HiggsConfig::builder()
            .shards(crate::shard::MAX_SHARDS)
            .build()
            .is_ok());
    }

    #[test]
    fn config_error_messages_name_the_constraint() {
        let msgs = [
            ConfigError::InvalidMatrixSide { d1: 12 }.to_string(),
            ConfigError::InvalidFingerprintBits {
                f1_bits: 40,
                r_bits: 1,
            }
            .to_string(),
            ConfigError::InvalidAddressBits { r_bits: 0 }.to_string(),
            ConfigError::InvalidBucketEntries { bucket_entries: 0 }.to_string(),
            ConfigError::InvalidMappingAddresses {
                mapping_addresses: 99,
            }
            .to_string(),
            ConfigError::InvalidShardCount { shards: 0 }.to_string(),
            ConfigError::InvalidIngestQueueCap.to_string(),
            ConfigError::InvalidAdmissionTick {
                admission_tick: Duration::from_secs(2),
            }
            .to_string(),
            ConfigError::InvalidServiceQueueDepth.to_string(),
            ConfigError::InvalidJournalSyncInterval.to_string(),
        ];
        for (msg, needle) in msgs.iter().zip([
            "d1",
            "F1",
            "R must",
            "b must",
            "r must",
            "shards must",
            "ingest_queue_cap",
            "admission_tick",
            "service_queue_depth",
            "journal_mode",
        ]) {
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
    }
}
