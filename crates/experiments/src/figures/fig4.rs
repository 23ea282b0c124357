//! Figure 4 + the Section IV-D error statistics — "Experimental results
//! for TCast with 2tBins algorithm" on the mote testbed.
//!
//! Full-stack reproduction: 12 participant motes + initiator over the
//! simulated CC2420 PHY (backcast HACKs, fading, superposition), 2tBins
//! with thresholds {2, 4, 6}, 100 runs per (t, x).
//! The paper reports 0 false positives and 102 false negatives out of 7200
//! queries (1.4%), concentrated at single-HACK groups.

use tcast_motes::{run_testbed, TestbedConfig, TestbedReport};

use crate::output::{Figure, Series, Table};

/// Builds the query-cost figure and the error table from one testbed sweep.
pub fn build(cfg: &TestbedConfig, seed: u64) -> (Figure, Table) {
    let report = run_testbed(cfg, seed);
    (figure_from(&report, cfg), error_table_from(&report, cfg))
}

fn figure_from(report: &TestbedReport, cfg: &TestbedConfig) -> Figure {
    let series = cfg
        .thresholds
        .iter()
        .map(|&t| Series {
            name: format!("2tBins t={t}"),
            points: report
                .rows_for_t(t)
                .iter()
                .map(|row| (row.x as f64, row.queries))
                .collect(),
        })
        .collect();
    Figure {
        id: "fig4".into(),
        title: format!(
            "TCast 2tBins on the mote testbed ({} participants, {} runs/config, full PHY)",
            cfg.participants, cfg.runs_per_config
        ),
        xlabel: "x (positive motes)".into(),
        ylabel: "backcast queries".into(),
        series,
    }
}

fn error_table_from(report: &TestbedReport, cfg: &TestbedConfig) -> Table {
    let mut table = Table::new(
        "error-table",
        &format!(
            "Section IV-D error statistics (paper: 0 FP, 102 FN / 7200 = 1.4%; {} participants)",
            cfg.participants
        ),
        &["metric", "value"],
    );
    let e = &report.errors;
    table.push_row(vec!["tcast sessions".into(), e.total_runs.to_string()]);
    table.push_row(vec![
        "false-positive sessions".into(),
        e.false_positive_runs.to_string(),
    ]);
    table.push_row(vec![
        "false-negative sessions".into(),
        e.false_negative_runs.to_string(),
    ]);
    table.push_row(vec![
        "session error rate".into(),
        format!("{:.2}%", 100.0 * e.run_error_rate()),
    ]);
    for (k, &(queries, silent)) in e.group_queries_by_k.iter().enumerate() {
        if queries == 0 {
            continue;
        }
        let rate = silent as f64 / queries as f64;
        table.push_row(vec![
            format!("group FN rate @ k={k}"),
            format!("{silent}/{queries} = {:.2}%", 100.0 * rate),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcast_motes::rcd::{Primitive, RcdConfig};

    fn tiny() -> TestbedConfig {
        TestbedConfig {
            participants: 8,
            thresholds: vec![2, 4],
            runs_per_config: 10,
            rcd: RcdConfig::testbed(),
            primitive: Primitive::Backcast,
        }
    }

    #[test]
    fn figure_has_one_series_per_threshold() {
        let (fig, _) = build(&tiny(), 4);
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].points.len(), 9);
    }

    #[test]
    fn error_table_reports_core_metrics() {
        let (_, table) = build(&tiny(), 4);
        let md = table.to_markdown();
        assert!(md.contains("tcast sessions"));
        assert!(md.contains("session error rate"));
    }

    #[test]
    fn no_false_positives_with_backcast() {
        let (_, table) = build(&tiny(), 5);
        let fp_row = table
            .rows
            .iter()
            .find(|r| r[0] == "false-positive sessions")
            .unwrap();
        assert_eq!(fp_row[1], "0");
    }
}
