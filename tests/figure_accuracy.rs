//! The figures CLI's accuracy sanity signal, enforced: on the collision-free
//! smoke presets HIGGS answers the Fig. 10 (edge) and Fig. 11 (vertex)
//! workloads exactly, at every range length the CLI sweeps. Long ranges span
//! many leaves, so they are answered from aggregated nodes, and any error
//! the aggregation path introduced would show here.

use higgs::{HiggsConfig, HiggsSummary};
use higgs_bench::experiments::{accuracy_cells, QueryKind};
use higgs_bench::{CompetitorKind, ExperimentConfig};
use higgs_common::generator::{DatasetPreset, ExperimentScale};
use higgs_common::TemporalGraphSummary;

fn assert_exact(kind: QueryKind) {
    let cfg = ExperimentConfig::for_scale(ExperimentScale::Smoke);
    for preset in DatasetPreset::all() {
        let mut summary = HiggsSummary::new(HiggsConfig::paper_default());
        summary.insert_all(preset.generate(cfg.scale).edges());
        assert!(
            summary.height() >= 3,
            "{}: too few leaves for aggregated nodes to answer queries",
            preset.label()
        );
    }
    let cells = accuracy_cells(&cfg, kind, &[CompetitorKind::Higgs]);
    assert_eq!(
        cells.len(),
        DatasetPreset::all().len() * cfg.lq_values.len(),
        "one cell per dataset and range length"
    );
    for cell in &cells {
        let at = format!("{} at Lq = {}", cell.preset.label(), cell.lq);
        assert!(cell.stats.count > 0, "{at}: no queries ran");
        assert_eq!(cell.stats.underestimates, 0, "{at}: HIGGS underestimated");
        assert_eq!(cell.stats.aae(), 0.0, "{at}: HIGGS AAE is not 0");
        assert_eq!(cell.stats.are(), 0.0, "{at}: HIGGS ARE is not 0");
    }
}

#[test]
fn higgs_answers_fig10_edge_queries_exactly_on_the_smoke_presets() {
    assert_exact(QueryKind::Edge);
}

#[test]
fn higgs_answers_fig11_vertex_queries_exactly_on_the_smoke_presets() {
    assert_exact(QueryKind::Vertex);
}
