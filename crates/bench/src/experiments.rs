//! Experiment drivers: one function per table/figure of the paper's
//! evaluation (Section VI). The `figures` binary and the Criterion benches
//! both call into this module so the numbers they report come from the same
//! code paths.

use crate::competitors::{build_parallel_higgs, CompetitorKind};
use crate::report::{fmt_metric, Report, Row};
use higgs::{HiggsConfig, HiggsSummary};
use higgs_common::generator::presets::{skewness_sweep, variance_sweep};
use higgs_common::generator::{DatasetPreset, ExperimentScale, WorkloadBuilder};
use higgs_common::metrics::{
    arrival_histogram, arrival_variance, degree_distribution, format_mib, powerlaw_exponent,
};
use higgs_common::{
    ErrorStats, ExactTemporalGraph, GraphStream, Query, TemporalGraphSummary, ThroughputStats,
};
use std::time::Instant;

/// Per-competitor accumulator used by the sweep experiments: one label plus
/// four metric columns collected across datasets.
type MethodColumns = (
    CompetitorKind,
    Vec<String>,
    Vec<String>,
    Vec<String>,
    Vec<String>,
);

/// Knobs shared by every experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Stream scale (smoke / default / paper-sized).
    pub scale: ExperimentScale,
    /// Number of edge queries per range length.
    pub edge_queries: usize,
    /// Number of vertex queries per range length.
    pub vertex_queries: usize,
    /// Query range lengths (the paper sweeps 10^1..10^7; scaled runs use a
    /// subset capped at the stream span).
    pub lq_values: Vec<u64>,
    /// Path/subgraph queries per configuration.
    pub composite_queries: usize,
    /// RNG seed for workload sampling.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Configuration for a given stream scale.
    pub fn for_scale(scale: ExperimentScale) -> Self {
        match scale {
            ExperimentScale::Smoke => Self {
                scale,
                edge_queries: 50,
                vertex_queries: 20,
                lq_values: vec![10, 1_000, 100_000],
                composite_queries: 5,
                seed: 7,
            },
            ExperimentScale::Default => Self {
                scale,
                edge_queries: 300,
                vertex_queries: 60,
                lq_values: vec![10, 100, 1_000, 10_000, 100_000, 1_000_000],
                composite_queries: 20,
                seed: 7,
            },
            ExperimentScale::Paper => Self {
                scale,
                edge_queries: 2_000,
                vertex_queries: 300,
                lq_values: vec![10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000],
                composite_queries: 100,
                seed: 7,
            },
        }
    }

    fn sweep_sizes(&self) -> (usize, usize) {
        match self.scale {
            ExperimentScale::Smoke => (1_000, 8_000),
            ExperimentScale::Default => (10_000, 60_000),
            ExperimentScale::Paper => (100_000, 600_000),
        }
    }
}

/// Builds each of `methods` and feeds the stream through it, returning the
/// loaded summaries together with per-method insertion timings.
fn load(
    stream: &GraphStream,
    methods: &[CompetitorKind],
) -> Vec<(CompetitorKind, Box<dyn TemporalGraphSummary + Send>, f64)> {
    let slices = stream
        .time_span()
        .map(|s| s.end + 1)
        .unwrap_or(1 << 16)
        .next_power_of_two();
    methods
        .iter()
        .map(|&kind| {
            let mut summary = kind.build(stream.len(), slices);
            let start = Instant::now();
            summary.insert_all(stream.edges());
            let secs = start.elapsed().as_secs_f64();
            (kind, summary, secs)
        })
        .collect()
}

/// Runs `queries` as one batch through the summary's plan-sharing
/// [`query_batch`](TemporalGraphSummary::query_batch) executor, comparing
/// against the exact store. Returns the error statistics plus the summary's
/// mean per-query latency in microseconds (truth evaluation is untimed).
fn error_stats_for_batch(
    summary: &dyn TemporalGraphSummary,
    exact: &ExactTemporalGraph,
    queries: &[Query],
) -> (ErrorStats, f64) {
    let start = Instant::now();
    let estimates = summary.query_batch(queries);
    let us = start.elapsed().as_secs_f64() * 1e6 / queries.len().max(1) as f64;
    let truths = exact.query_batch(queries);
    let mut stats = ErrorStats::new();
    for (truth, est) in truths.into_iter().zip(estimates) {
        stats.record(truth, est);
    }
    (stats, us)
}

/// Table II: dataset summary statistics.
pub fn table2(cfg: &ExperimentConfig) -> Vec<Report> {
    let mut report = Report::new(
        "Table II — Summary of datasets (scaled presets)",
        vec!["nodes", "edges", "distinct edges", "time span"],
    );
    for preset in DatasetPreset::all() {
        let stream = preset.generate(cfg.scale);
        let stats = stream.stats();
        report.push(Row::new(
            preset.label(),
            vec![
                stats.vertices.to_string(),
                stats.edges.to_string(),
                stats.distinct_edges.to_string(),
                stats
                    .time_span
                    .map(|s| format!("{s}"))
                    .unwrap_or_else(|| "-".into()),
            ],
        ));
    }
    vec![report]
}

/// Fig. 2: skewness of vertex degrees (log-binned degree distribution and
/// fitted power-law exponent per dataset).
pub fn fig2(cfg: &ExperimentConfig) -> Vec<Report> {
    let mut reports = Vec::new();
    for preset in DatasetPreset::all() {
        let stream = preset.generate(cfg.scale);
        let dist = degree_distribution(&stream);
        let mut report = Report::new(
            format!(
                "Fig. 2 — Vertex-degree skewness ({}; fitted exponent {:.2})",
                preset.label(),
                powerlaw_exponent(&stream)
            ),
            vec!["#vertices"],
        );
        for point in dist {
            report.push(Row::new(
                format!("degree≥{}", point.degree),
                vec![point.vertices.to_string()],
            ));
        }
        reports.push(report);
    }
    reports
}

/// Fig. 3: irregularity of stream arrivals (hottest slices and variance).
pub fn fig3(cfg: &ExperimentConfig) -> Vec<Report> {
    let mut reports = Vec::new();
    for preset in DatasetPreset::all() {
        let stream = preset.generate(cfg.scale);
        let slice = (stream.time_span().map(|s| s.len()).unwrap_or(1) / 64).max(1);
        let mut hist = arrival_histogram(&stream, slice);
        hist.sort_by_key(|p| std::cmp::Reverse(p.arrivals));
        let mut report = Report::new(
            format!(
                "Fig. 3 — Arrival irregularity ({}; per-slice variance {:.1})",
                preset.label(),
                arrival_variance(&stream, slice)
            ),
            vec!["arrivals"],
        );
        for p in hist.iter().take(10) {
            report.push(Row::new(
                format!("slice {}", p.slice),
                vec![p.arrivals.to_string()],
            ));
        }
        reports.push(report);
    }
    reports
}

/// Which TRQ primitive an accuracy experiment exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Edge queries (Fig. 10).
    Edge,
    /// Vertex queries (Fig. 11).
    Vertex,
}

/// One measurement behind Figs. 10 & 11: a method's error statistics and
/// mean per-query latency on one dataset at one query range length.
#[derive(Clone, Debug)]
pub struct AccuracyCell {
    /// The dataset the stream was generated from.
    pub preset: DatasetPreset,
    /// The summary measured.
    pub method: CompetitorKind,
    /// The query range length.
    pub lq: u64,
    /// Errors against the exact store.
    pub stats: ErrorStats,
    /// Mean per-query latency in microseconds.
    pub latency_us: f64,
}

/// Runs the Fig. 10 (edge) or Fig. 11 (vertex) workload against each of
/// `methods` on every dataset and at every range length of `cfg`: one cell
/// per dataset, method and range length, in that nesting order.
pub fn accuracy_cells(
    cfg: &ExperimentConfig,
    kind: QueryKind,
    methods: &[CompetitorKind],
) -> Vec<AccuracyCell> {
    let mut cells = Vec::new();
    for preset in DatasetPreset::all() {
        let stream = preset.generate(cfg.scale);
        let exact = ExactTemporalGraph::from_edges(stream.edges());
        for (method, summary, _) in load(&stream, methods) {
            for &lq in &cfg.lq_values {
                let mut builder = WorkloadBuilder::new(&stream, cfg.seed ^ lq);
                let queries: Vec<Query> = match kind {
                    QueryKind::Edge => builder
                        .edge_queries(cfg.edge_queries, lq)
                        .into_iter()
                        .map(Query::Edge)
                        .collect(),
                    QueryKind::Vertex => builder
                        .vertex_queries(cfg.vertex_queries, lq)
                        .into_iter()
                        .map(Query::Vertex)
                        .collect(),
                };
                let (stats, latency_us) = error_stats_for_batch(summary.as_ref(), &exact, &queries);
                cells.push(AccuracyCell {
                    preset,
                    method,
                    lq,
                    stats,
                    latency_us,
                });
            }
        }
    }
    cells
}

/// Figs. 10 & 11: AAE / ARE / latency of edge (or vertex) queries versus the
/// query range length, per dataset and method.
pub fn accuracy_experiment(cfg: &ExperimentConfig, kind: QueryKind) -> Vec<Report> {
    let fig = match kind {
        QueryKind::Edge => "Fig. 10",
        QueryKind::Vertex => "Fig. 11",
    };
    let lq_cols: Vec<String> = cfg
        .lq_values
        .iter()
        .map(|lq| format!("Lq=1e{}", (*lq as f64).log10() as u32))
        .collect();
    let columns: Vec<&str> = lq_cols.iter().map(String::as_str).collect();
    let cells = accuracy_cells(cfg, kind, &CompetitorKind::all());
    let mut reports = Vec::new();
    for preset in DatasetPreset::all() {
        let label = preset.label();
        let mut aae = Report::new(
            format!("{fig} — {} query AAE ({label})", kind_label(kind)),
            columns.clone(),
        );
        let mut are = Report::new(
            format!("{fig} — {} query ARE ({label})", kind_label(kind)),
            columns.clone(),
        );
        let mut latency = Report::new(
            format!("{fig} — {} query latency, µs ({label})", kind_label(kind)),
            columns.clone(),
        );
        for method in CompetitorKind::all() {
            // The method's cells on this dataset, one per range length.
            let row = || {
                cells
                    .iter()
                    .filter(move |c| c.preset == preset && c.method == method)
            };
            let values =
                |metric: fn(&AccuracyCell) -> f64| row().map(|c| fmt_metric(metric(c))).collect();
            aae.push(Row::new(method.label(), values(|c| c.stats.aae())));
            are.push(Row::new(method.label(), values(|c| c.stats.are())));
            latency.push(Row::new(method.label(), values(|c| c.latency_us)));
        }
        reports.push(aae);
        reports.push(are);
        reports.push(latency);
    }
    reports
}

fn kind_label(kind: QueryKind) -> &'static str {
    match kind {
        QueryKind::Edge => "edge",
        QueryKind::Vertex => "vertex",
    }
}

/// Figs. 12 & 13: path queries versus hop count and subgraph queries versus
/// subgraph size (temporal range fixed, as in the paper).
pub fn composite_experiment(cfg: &ExperimentConfig) -> Vec<Report> {
    let preset = DatasetPreset::Lkml;
    let stream = preset.generate(cfg.scale);
    let exact = ExactTemporalGraph::from_edges(stream.edges());
    let loaded = load(&stream, &CompetitorKind::all());
    let lq = stream.time_span().map(|s| s.len() / 4).unwrap_or(1_000);

    let hop_cols: Vec<String> = (1..=7).map(|h| format!("{h} hops")).collect();
    let mut path_aae = Report::new(
        format!("Fig. 12 — Path query AAE ({})", preset.label()),
        hop_cols.iter().map(String::as_str).collect(),
    );
    let mut path_lat = Report::new(
        format!("Fig. 12 — Path query latency, µs ({})", preset.label()),
        hop_cols.iter().map(String::as_str).collect(),
    );
    let size_values: Vec<usize> = (1..=7).map(|i| i * 50).collect();
    let size_cols: Vec<String> = size_values.iter().map(|s| format!("{s} edges")).collect();
    let mut sub_aae = Report::new(
        format!("Fig. 13 — Subgraph query AAE ({})", preset.label()),
        size_cols.iter().map(String::as_str).collect(),
    );
    let mut sub_lat = Report::new(
        format!("Fig. 13 — Subgraph query latency, µs ({})", preset.label()),
        size_cols.iter().map(String::as_str).collect(),
    );

    for (kind, summary, _) in &loaded {
        let mut aae_vals = Vec::new();
        let mut lat_vals = Vec::new();
        for hops in 1..=7usize {
            let mut builder = WorkloadBuilder::new(&stream, cfg.seed + hops as u64);
            let queries: Vec<Query> = builder
                .path_queries(cfg.composite_queries, hops, lq)
                .into_iter()
                .map(Query::Path)
                .collect();
            let (stats, us) = error_stats_for_batch(summary.as_ref(), &exact, &queries);
            aae_vals.push(fmt_metric(stats.aae()));
            lat_vals.push(fmt_metric(us));
        }
        path_aae.push(Row::new(kind.label(), aae_vals));
        path_lat.push(Row::new(kind.label(), lat_vals));

        let mut aae_vals = Vec::new();
        let mut lat_vals = Vec::new();
        for &size in &size_values {
            let mut builder = WorkloadBuilder::new(&stream, cfg.seed + size as u64);
            let queries: Vec<Query> = builder
                .subgraph_queries(cfg.composite_queries.max(3) / 3, size, lq)
                .into_iter()
                .map(Query::Subgraph)
                .collect();
            let (stats, us) = error_stats_for_batch(summary.as_ref(), &exact, &queries);
            aae_vals.push(fmt_metric(stats.aae()));
            lat_vals.push(fmt_metric(us));
        }
        sub_aae.push(Row::new(kind.label(), aae_vals));
        sub_lat.push(Row::new(kind.label(), lat_vals));
    }
    vec![path_aae, path_lat, sub_aae, sub_lat]
}

/// Figs. 14 & 15: vertex-query accuracy and update cost under varying degree
/// skewness and arrival variance.
pub fn irregularity_experiment(cfg: &ExperimentConfig, by_variance: bool) -> Vec<Report> {
    let (nodes, edges) = cfg.sweep_sizes();
    let datasets: Vec<(String, GraphStream)> = if by_variance {
        variance_sweep(nodes, edges)
            .into_iter()
            .map(|(level, s)| (format!("variance level {level}"), s))
            .collect()
    } else {
        skewness_sweep(nodes, edges)
            .into_iter()
            .map(|(skew, s)| (format!("skew {skew:.1}"), s))
            .collect()
    };
    let fig = if by_variance { "Fig. 15" } else { "Fig. 14" };
    let cols: Vec<String> = datasets.iter().map(|(label, _)| label.clone()).collect();
    let mut aae = Report::new(
        format!("{fig}(a) — Vertex query AAE"),
        cols.iter().map(String::as_str).collect(),
    );
    let mut lat = Report::new(
        format!("{fig}(b) — Vertex query latency, µs"),
        cols.iter().map(String::as_str).collect(),
    );
    let mut space = Report::new(
        format!("{fig}(c) — Space cost"),
        cols.iter().map(String::as_str).collect(),
    );
    let mut thr = Report::new(
        format!("{fig}(d) — Insertion throughput, Medges/s"),
        cols.iter().map(String::as_str).collect(),
    );

    let mut per_method: Vec<MethodColumns> = CompetitorKind::all()
        .into_iter()
        .map(|k| (k, Vec::new(), Vec::new(), Vec::new(), Vec::new()))
        .collect();

    for (_, stream) in &datasets {
        let exact = ExactTemporalGraph::from_edges(stream.edges());
        let loaded = load(stream, &CompetitorKind::all());
        let lq = stream.time_span().map(|s| s.len() / 8).unwrap_or(1_000);
        for ((kind, summary, secs), slot) in loaded.iter().zip(per_method.iter_mut()) {
            debug_assert_eq!(*kind, slot.0);
            let mut builder = WorkloadBuilder::new(stream, cfg.seed);
            let queries: Vec<Query> = builder
                .vertex_queries(cfg.vertex_queries, lq)
                .into_iter()
                .map(Query::Vertex)
                .collect();
            let (stats, us) = error_stats_for_batch(summary.as_ref(), &exact, &queries);
            slot.1.push(fmt_metric(stats.aae()));
            slot.2.push(fmt_metric(us));
            slot.3.push(format_mib(summary.space_bytes()));
            let throughput = ThroughputStats {
                items: stream.len(),
                seconds: *secs,
            };
            slot.4.push(fmt_metric(throughput.mops()));
        }
    }
    for (kind, aae_v, lat_v, space_v, thr_v) in per_method {
        aae.push(Row::new(kind.label(), aae_v));
        lat.push(Row::new(kind.label(), lat_v));
        space.push(Row::new(kind.label(), space_v));
        thr.push(Row::new(kind.label(), thr_v));
    }
    vec![aae, lat, space, thr]
}

/// Figs. 16–19: insertion throughput, insertion latency, deletion throughput,
/// and space cost per dataset and method.
pub fn update_cost_experiment(cfg: &ExperimentConfig) -> Vec<Report> {
    let presets = DatasetPreset::all();
    let cols: Vec<String> = presets.iter().map(|p| p.label().to_string()).collect();
    let mut thr = Report::new(
        "Fig. 16 — Insertion throughput, Medges/s",
        cols.iter().map(String::as_str).collect(),
    );
    let mut lat = Report::new(
        "Fig. 17 — Insertion latency, µs/edge",
        cols.iter().map(String::as_str).collect(),
    );
    let mut del = Report::new(
        "Fig. 18 — Deletion throughput, Medges/s",
        cols.iter().map(String::as_str).collect(),
    );
    let mut space = Report::new(
        "Fig. 19 — Space cost",
        cols.iter().map(String::as_str).collect(),
    );

    let mut per_method: Vec<MethodColumns> = CompetitorKind::all()
        .into_iter()
        .map(|k| (k, Vec::new(), Vec::new(), Vec::new(), Vec::new()))
        .collect();

    for preset in presets {
        let stream = preset.generate(cfg.scale);
        let loaded = load(&stream, &CompetitorKind::all());
        // Delete a sample of the stream to measure deletion throughput.
        let delete_count = (stream.len() / 5).max(1);
        for ((kind, mut summary, secs), slot) in loaded.into_iter().zip(per_method.iter_mut()) {
            debug_assert_eq!(kind, slot.0);
            let throughput = ThroughputStats {
                items: stream.len(),
                seconds: secs,
            };
            slot.1.push(fmt_metric(throughput.mops()));
            slot.2.push(fmt_metric(throughput.latency_us()));
            let start = Instant::now();
            for e in stream.edges().iter().take(delete_count) {
                summary.delete(e);
            }
            let del_thr = ThroughputStats::new(delete_count, start.elapsed());
            slot.3.push(fmt_metric(del_thr.mops()));
            slot.4.push(format_mib(summary.space_bytes()));
        }
    }
    for (kind, thr_v, lat_v, del_v, space_v) in per_method {
        thr.push(Row::new(kind.label(), thr_v));
        lat.push(Row::new(kind.label(), lat_v));
        del.push(Row::new(kind.label(), del_v));
        space.push(Row::new(kind.label(), space_v));
    }
    vec![thr, lat, del, space]
}

/// Fig. 20: effectiveness of the three optimisations (parallel insertion,
/// multiple mapping buckets, overflow blocks).
pub fn optimization_experiment(cfg: &ExperimentConfig) -> Vec<Report> {
    let mut para = Report::new(
        "Fig. 20(a) — HIGGS insertion throughput with/without parallelisation, Medges/s",
        vec!["sequential", "parallel"],
    );
    let mut ablation = Report::new(
        "Fig. 20(b) — Space & accuracy with/without MMB and OB",
        vec!["space", "vertex AAE", "leaves"],
    );

    for preset in DatasetPreset::all() {
        let stream = preset.generate(cfg.scale);
        // Parallelisation.
        let mut sequential = HiggsSummary::new(HiggsConfig::paper_default());
        let start = Instant::now();
        sequential.insert_all(stream.edges());
        let seq_thr = ThroughputStats::new(stream.len(), start.elapsed()).mops();
        let mut parallel = build_parallel_higgs(4);
        let start = Instant::now();
        parallel.insert_all(stream.edges());
        parallel.flush();
        let par_thr = ThroughputStats::new(stream.len(), start.elapsed()).mops();
        para.push(Row::new(
            preset.label(),
            vec![fmt_metric(seq_thr), fmt_metric(par_thr)],
        ));
    }

    // MMB / OB ablation on the Lkml-like preset.
    let stream = DatasetPreset::Lkml.generate(cfg.scale);
    let exact = ExactTemporalGraph::from_edges(stream.edges());
    let lq = stream.time_span().map(|s| s.len() / 8).unwrap_or(1_000);
    for (label, config) in [
        ("HIGGS", HiggsConfig::paper_default()),
        ("HIGGS w/o MMB", HiggsConfig::paper_default().without_mmb()),
        (
            "HIGGS w/o OB",
            HiggsConfig::paper_default().without_overflow_blocks(),
        ),
    ] {
        let mut summary = HiggsSummary::new(config);
        summary.insert_all(stream.edges());
        let mut builder = WorkloadBuilder::new(&stream, cfg.seed);
        let queries: Vec<Query> = builder
            .vertex_queries(cfg.vertex_queries, lq)
            .into_iter()
            .map(Query::Vertex)
            .collect();
        let (stats, _) = error_stats_for_batch(&summary, &exact, &queries);
        ablation.push(Row::new(
            label,
            vec![
                format_mib(summary.space_bytes()),
                fmt_metric(stats.aae()),
                summary.leaf_count().to_string(),
            ],
        ));
    }
    vec![para, ablation]
}

/// Fig. 21: impact of the leaf matrix side `d1` on space and query latency.
pub fn parameter_experiment(cfg: &ExperimentConfig) -> Vec<Report> {
    let stream = DatasetPreset::Stackoverflow.generate(cfg.scale);
    let lq = stream.time_span().map(|s| s.len() / 8).unwrap_or(1_000);
    let mut report = Report::new(
        "Fig. 21 — Space cost and query latency vs leaf matrix size d1 (Stackoverflow)",
        vec!["space", "edge-query latency µs", "leaves", "height"],
    );
    for d1 in [4u64, 8, 16, 32, 64] {
        let mut summary = HiggsSummary::new(
            HiggsConfig::builder()
                .d1(d1)
                .build()
                .expect("d1 sweep values are valid"),
        );
        summary.insert_all(stream.edges());
        let mut builder = WorkloadBuilder::new(&stream, cfg.seed);
        let queries: Vec<Query> = builder
            .edge_queries(cfg.edge_queries, lq)
            .into_iter()
            .map(Query::Edge)
            .collect();
        let start = Instant::now();
        let estimates = summary.query_batch(&queries);
        std::hint::black_box(estimates);
        let us = start.elapsed().as_secs_f64() * 1e6 / queries.len().max(1) as f64;
        report.push(Row::new(
            format!("d1={d1}"),
            vec![
                format_mib(summary.space_bytes()),
                fmt_metric(us),
                summary.leaf_count().to_string(),
                summary.height().to_string(),
            ],
        ));
    }
    vec![report]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> ExperimentConfig {
        ExperimentConfig::for_scale(ExperimentScale::Smoke)
    }

    #[test]
    fn table2_lists_three_datasets() {
        let reports = table2(&smoke());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].rows.len(), 3);
    }

    #[test]
    fn fig2_and_fig3_produce_one_report_per_dataset() {
        assert_eq!(fig2(&smoke()).len(), 3);
        assert_eq!(fig3(&smoke()).len(), 3);
    }

    #[test]
    fn parameter_experiment_sweeps_d1() {
        let reports = parameter_experiment(&ExperimentConfig {
            edge_queries: 10,
            ..smoke()
        });
        assert_eq!(reports[0].rows.len(), 5);
    }

    #[test]
    fn accuracy_experiment_covers_all_methods_smoke() {
        let cfg = ExperimentConfig {
            edge_queries: 10,
            vertex_queries: 5,
            lq_values: vec![100],
            ..smoke()
        };
        let reports = accuracy_experiment(&cfg, QueryKind::Edge);
        assert_eq!(reports.len(), 9, "3 datasets × (AAE, ARE, latency)");
        assert!(reports.iter().all(|r| r.rows.len() == 6));
    }
}
