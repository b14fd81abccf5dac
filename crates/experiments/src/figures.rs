//! Assembly of every figure and table in the paper's evaluation (§5).
//!
//! Each `figN` function runs (or fetches from cache) exactly the grid slice
//! the corresponding paper figure draws, and renders it as text tables plus
//! CSV. The figure numbering follows the paper:
//!
//! * Fig. 2 — per-sender throughput, inter-CCA vs CUBIC, FIFO
//! * Fig. 3 — Jain index, FIFO, inter & intra, buffers 2/16 BDP
//! * Fig. 4 — per-sender throughput, inter-CCA vs CUBIC, RED
//! * Fig. 5 — Jain index, RED
//! * Fig. 6 — Jain index, FQ_CODEL
//! * Fig. 7 — overall link utilization φ, intra-CCA, all AQMs
//! * Fig. 8 — retransmissions, intra-CCA, all AQMs
//! * Table 3 — Avg(φ), Avg(RR), Avg(J) per CCA-pair × AQM

use crate::cache::RunCache;
use crate::report::{bw_label, TextTable};
use crate::svg::{ChartSpec, Series};
use crate::runner::AveragedResult;
use crate::scenario::{
    inter_pairs, intra_pairs, paper_pairs, RunOptions, ScenarioConfig, PAPER_QUEUES_BDP,
};
use crate::sweep::sweep;
use elephants_aqm::AqmKind;
use elephants_cca::CcaKind;
use elephants_metrics::relative_retransmissions;

/// Buffer sizes the paper's Jain/utilization/retransmission figures plot.
pub const FIGURE_BUFFERS_BDP: [f64; 2] = [2.0, 16.0];

/// A rendered figure: human-readable text and per-table CSVs.
#[derive(Debug)]
pub struct FigureOutput {
    /// Figure id, e.g. `"fig2"`.
    pub id: &'static str,
    /// Paper-style caption.
    pub caption: String,
    /// Rendered text (all panels).
    pub text: String,
    /// `(name, table)` pairs for CSV export.
    pub tables: Vec<(String, TextTable)>,
    /// `(name, spec, series)` charts for SVG export.
    pub charts: Vec<(String, ChartSpec, Vec<Series>)>,
}

impl FigureOutput {
    /// Write every table as `results/<id>/<name>.csv`.
    pub fn write_csvs(&self, out_dir: &str) -> std::io::Result<()> {
        for (name, table) in &self.tables {
            table.write_csv(format!("{out_dir}/{}/{}.csv", self.id, name))?;
        }
        Ok(())
    }

    /// Write every chart as `results/<id>/<name>.svg`.
    pub fn write_svgs(&self, out_dir: &str) -> std::io::Result<()> {
        for (name, spec, series) in &self.charts {
            crate::svg::write_chart(format!("{out_dir}/{}/{}.svg", self.id, name), spec, series)?;
        }
        Ok(())
    }
}

fn throughput_figure(
    id: &'static str,
    aqm: AqmKind,
    opts: &RunOptions,
    cache: &RunCache,
    bws: &[u64],
) -> FigureOutput {
    let mut text = String::new();
    let mut tables = Vec::new();
    let mut charts = Vec::new();
    for (cca1, cca2) in inter_pairs() {
        for &bw in bws {
            let configs: Vec<ScenarioConfig> = PAPER_QUEUES_BDP
                .iter()
                .map(|&q| ScenarioConfig::new(cca1, cca2, aqm, q, bw, opts))
                .collect();
            let results = sweep(&configs, opts.repeats, cache);
            let mut t = TextTable::new(vec![
                "buffer_bdp".to_string(),
                format!("{}_mbps", cca1.name()),
                format!("{}_mbps", cca2.name()),
            ]);
            for r in &results {
                t.row(vec![
                    format!("{}", r.config.queue_bdp),
                    format!("{:.2}", r.sender_mbps.first().copied().unwrap_or(0.0)),
                    format!("{:.2}", r.sender_mbps.get(1).copied().unwrap_or(0.0)),
                ]);
            }
            text.push_str(&format!(
                "\n== {} vs {} @ {} ({}) ==\n{}",
                cca1.pretty(),
                cca2.pretty(),
                bw_label(bw),
                aqm,
                t.render()
            ));
            let name = format!("{}_vs_{}_{}", cca1.name(), cca2.name(), bw_label(bw));
            charts.push((
                name.clone(),
                ChartSpec {
                    title: format!("{} vs {} @ {} ({})", cca1.pretty(), cca2.pretty(), bw_label(bw), aqm),
                    x_label: "buffer (BDP)".into(),
                    y_label: "throughput (Mbps)".into(),
                    log_x: true,
                    ..Default::default()
                },
                vec![
                    Series {
                        name: cca1.pretty().into(),
                        points: results
                            .iter()
                            .map(|r| (r.config.queue_bdp, r.sender_mbps.first().copied().unwrap_or(0.0)))
                            .collect(),
                    },
                    Series {
                        name: cca2.pretty().into(),
                        points: results
                            .iter()
                            .map(|r| (r.config.queue_bdp, r.sender_mbps.get(1).copied().unwrap_or(0.0)))
                            .collect(),
                    },
                ],
            ));
            tables.push((name, t));
        }
    }
    FigureOutput {
        id,
        caption: format!(
            "Per-sender throughput of TCP variants vs CUBIC over buffer size, AQM={aqm}"
        ),
        text,
        tables,
        charts,
    }
}

/// Figure 2: per-sender throughput vs buffer size, FIFO.
pub fn fig2(opts: &RunOptions, cache: &RunCache, bws: &[u64]) -> FigureOutput {
    throughput_figure("fig2", AqmKind::Fifo, opts, cache, bws)
}

/// Figure 4: per-sender throughput vs buffer size, RED.
pub fn fig4(opts: &RunOptions, cache: &RunCache, bws: &[u64]) -> FigureOutput {
    throughput_figure("fig4", AqmKind::Red, opts, cache, bws)
}

fn jain_figure(
    id: &'static str,
    aqm: AqmKind,
    opts: &RunOptions,
    cache: &RunCache,
    bws: &[u64],
) -> FigureOutput {
    let mut text = String::new();
    let mut tables = Vec::new();
    let mut charts = Vec::new();
    for (mode, pairs) in [("inter", inter_pairs()), ("intra", intra_pairs())] {
        for &buf in &FIGURE_BUFFERS_BDP {
            let mut t = TextTable::new(
                std::iter::once("bw".to_string())
                    .chain(pairs.iter().map(|&(a, b)| format!("{}_vs_{}", a.name(), b.name())))
                    .collect::<Vec<_>>(),
            );
            // One row per bandwidth, one column per pair.
            let mut columns: Vec<Vec<f64>> = Vec::new();
            for &(cca1, cca2) in &pairs {
                let configs: Vec<ScenarioConfig> = bws
                    .iter()
                    .map(|&bw| ScenarioConfig::new(cca1, cca2, aqm, buf, bw, opts))
                    .collect();
                let results = sweep(&configs, opts.repeats, cache);
                columns.push(results.iter().map(|r| r.jain).collect());
            }
            for (i, &bw) in bws.iter().enumerate() {
                let mut row = vec![bw_label(bw)];
                for col in &columns {
                    row.push(format!("{:.3}", col[i]));
                }
                t.row(row);
            }
            text.push_str(&format!("\n== Jain index, {mode}-CCA, buffer {buf} BDP ({aqm}) ==\n{}", t.render()));
            let name = format!("{mode}_{buf}bdp");
            charts.push((
                name.clone(),
                ChartSpec {
                    title: format!("Jain index, {mode}-CCA, {buf} BDP ({aqm})"),
                    x_label: "bottleneck bandwidth (bps)".into(),
                    y_label: "Jain index".into(),
                    log_x: true,
                    ..Default::default()
                },
                pairs
                    .iter()
                    .zip(&columns)
                    .map(|(&(a, b), col)| Series {
                        name: format!("{} vs {}", a.pretty(), b.pretty()),
                        points: bws.iter().zip(col).map(|(&bw, &j)| (bw as f64, j)).collect(),
                    })
                    .collect(),
            ));
            tables.push((name, t));
        }
    }
    FigureOutput {
        id,
        caption: format!("Jain's fairness index, AQM={aqm}, inter/intra, buffers 2 & 16 BDP"),
        text,
        tables,
        charts,
    }
}

/// Figure 3: Jain index under FIFO.
pub fn fig3(opts: &RunOptions, cache: &RunCache, bws: &[u64]) -> FigureOutput {
    jain_figure("fig3", AqmKind::Fifo, opts, cache, bws)
}

/// Figure 5: Jain index under RED.
pub fn fig5(opts: &RunOptions, cache: &RunCache, bws: &[u64]) -> FigureOutput {
    jain_figure("fig5", AqmKind::Red, opts, cache, bws)
}

/// Figure 6: Jain index under FQ_CODEL.
pub fn fig6(opts: &RunOptions, cache: &RunCache, bws: &[u64]) -> FigureOutput {
    jain_figure("fig6", AqmKind::FqCodel, opts, cache, bws)
}

fn intra_metric_figure(
    id: &'static str,
    metric_name: &str,
    metric: impl Fn(&AveragedResult) -> f64,
    opts: &RunOptions,
    cache: &RunCache,
    bws: &[u64],
) -> FigureOutput {
    let mut text = String::new();
    let mut tables = Vec::new();
    let mut charts = Vec::new();
    for aqm in AqmKind::PAPER_SET {
        for &buf in &FIGURE_BUFFERS_BDP {
            let mut t = TextTable::new(
                std::iter::once("bw".to_string())
                    .chain(CcaKind::PAPER_SET.iter().map(|cca| cca.pretty().to_string()))
                    .collect::<Vec<_>>(),
            );
            let mut columns: Vec<Vec<f64>> = Vec::new();
            for cca in CcaKind::PAPER_SET {
                let configs: Vec<ScenarioConfig> = bws
                    .iter()
                    .map(|&bw| ScenarioConfig::new(cca, cca, aqm, buf, bw, opts))
                    .collect();
                let results = sweep(&configs, opts.repeats, cache);
                columns.push(results.iter().map(&metric).collect());
            }
            for (i, &bw) in bws.iter().enumerate() {
                let mut row = vec![bw_label(bw)];
                for col in &columns {
                    row.push(format!("{:.3}", col[i]));
                }
                t.row(row);
            }
            text.push_str(&format!(
                "\n== {metric_name}, intra-CCA, {aqm}, buffer {buf} BDP ==\n{}",
                t.render()
            ));
            let name = format!("{}_{}bdp", aqm.name(), buf);
            charts.push((
                name.clone(),
                ChartSpec {
                    title: format!("{metric_name}, intra-CCA, {aqm}, {buf} BDP"),
                    x_label: "bottleneck bandwidth (bps)".into(),
                    y_label: metric_name.into(),
                    log_x: true,
                    ..Default::default()
                },
                CcaKind::PAPER_SET
                    .iter()
                    .zip(&columns)
                    .map(|(cca, col)| Series {
                        name: cca.pretty().into(),
                        points: bws.iter().zip(col).map(|(&bw, &v)| (bw as f64, v)).collect(),
                    })
                    .collect(),
            ));
            tables.push((name, t));
        }
    }
    FigureOutput {
        id,
        caption: format!("Intra-CCA {metric_name} for FIFO, RED and FQ_CODEL at 2 & 16 BDP"),
        text,
        tables,
        charts,
    }
}

/// Figure 7: overall link utilization φ (intra-CCA).
pub fn fig7(opts: &RunOptions, cache: &RunCache, bws: &[u64]) -> FigureOutput {
    intra_metric_figure("fig7", "link utilization", |r| r.utilization, opts, cache, bws)
}

/// Figure 8: retransmissions (intra-CCA).
pub fn fig8(opts: &RunOptions, cache: &RunCache, bws: &[u64]) -> FigureOutput {
    intra_metric_figure("fig8", "retransmissions", |r| r.retransmits, opts, cache, bws)
}

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// The CCA pairing.
    pub pair: (CcaKind, CcaKind),
    /// The AQM.
    pub aqm: AqmKind,
    /// Average link utilization across the sub-grid.
    pub avg_phi: f64,
    /// Average relative retransmissions vs CUBIC-CUBIC.
    pub avg_rr: f64,
    /// Average Jain index.
    pub avg_jain: f64,
}

/// Table 3: overall averages per CCA-pair × AQM over queues × bandwidths.
pub fn table3(opts: &RunOptions, cache: &RunCache, bws: &[u64], queues: &[f64]) -> Vec<Table3Row> {
    let pairs = paper_pairs();
    let mut rows = Vec::new();
    // The paper's Table 3 lists FQ_CODEL last.
    let mut aqms = AqmKind::PAPER_SET;
    aqms.sort_by_key(|&aqm| aqm == AqmKind::FqCodel);
    for aqm in aqms {
        // CUBIC-CUBIC reference retransmissions per condition.
        let ref_configs: Vec<ScenarioConfig> = queues
            .iter()
            .flat_map(|&q| {
                bws.iter().map(move |&bw| (q, bw)).map(|(q, bw)| {
                    ScenarioConfig::new(CcaKind::Cubic, CcaKind::Cubic, aqm, q, bw, opts)
                })
            })
            .collect();
        let reference = sweep(&ref_configs, opts.repeats, cache);

        for &(cca1, cca2) in &pairs {
            let configs: Vec<ScenarioConfig> = queues
                .iter()
                .flat_map(|&q| {
                    bws.iter().map(move |&bw| (q, bw)).map(|(q, bw)| {
                        ScenarioConfig::new(cca1, cca2, aqm, q, bw, opts)
                    })
                })
                .collect();
            let results = sweep(&configs, opts.repeats, cache);
            let n = results.len() as f64;
            let avg_phi = results.iter().map(|r| r.utilization).sum::<f64>() / n;
            let avg_jain = results.iter().map(|r| r.jain).sum::<f64>() / n;
            // RR per condition, then averaged (paper Eq. 4 then Avg(RR)).
            let mut rr_sum = 0.0;
            let mut rr_n = 0.0;
            for (r, ref_r) in results.iter().zip(reference.iter()) {
                let rr = relative_retransmissions(
                    r.retransmits.round() as u64,
                    ref_r.retransmits.round() as u64,
                );
                if elephants_metrics::rr_is_defined(rr) {
                    rr_sum += rr;
                    rr_n += 1.0;
                }
            }
            let avg_rr = if rr_n > 0.0 { rr_sum / rr_n } else { f64::NAN };
            rows.push(Table3Row { pair: (cca1, cca2), aqm, avg_phi, avg_rr, avg_jain });
        }
    }
    rows
}

/// Render Table 3 in the paper's layout.
pub fn render_table3(rows: &[Table3Row]) -> TextTable {
    let mut t = TextTable::new(vec!["CCA1 vs CCA2", "AQM", "Avg(phi)", "Avg(RR)", "Avg(J)"]);
    for r in rows {
        t.row(vec![
            format!("{} vs {}", r.pair.0.pretty(), r.pair.1.pretty()),
            r.aqm.name().to_string(),
            format!("{:.3}", r.avg_phi),
            format!("{:.3}", r.avg_rr),
            format!("{:.3}", r.avg_jain),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> RunOptions {
        RunOptions { repeats: 1, ..RunOptions::quick() }
    }

    #[test]
    fn fig2_structure_smoke() {
        let cache = RunCache::disabled();
        let out = fig2(&tiny_opts(), &cache, &[100_000_000]);
        // 4 inter pairs × 1 bw = 4 tables, each with 6 buffer rows.
        assert_eq!(out.tables.len(), 4);
        assert!(out.tables.iter().all(|(_, t)| t.len() == 6));
        assert!(out.text.contains("BBRv1 vs CUBIC"));
    }

    #[test]
    fn fig3_structure_smoke() {
        let cache = RunCache::disabled();
        let out = fig3(&tiny_opts(), &cache, &[100_000_000]);
        // inter/intra × 2 buffers = 4 tables, each with a matching chart.
        assert_eq!(out.tables.len(), 4);
        assert_eq!(out.charts.len(), 4);
        // Jain values plotted must be in (0, 1].
        for (_, _, series) in &out.charts {
            for s in series {
                for &(_, j) in &s.points {
                    assert!(j > 0.0 && j <= 1.0, "J={j}");
                }
            }
        }
    }

    #[test]
    fn figure_charts_mirror_tables() {
        let cache = RunCache::disabled();
        let out = fig2(&tiny_opts(), &cache, &[100_000_000]);
        assert_eq!(out.charts.len(), out.tables.len());
        // Throughput charts carry one series per sender.
        for (_, _, series) in &out.charts {
            assert_eq!(series.len(), 2);
            assert_eq!(series[0].points.len(), 6); // six buffer sizes
        }
        // SVG rendering works for every chart.
        for (_, spec, series) in &out.charts {
            let svg = crate::svg::line_chart(spec, series);
            assert!(svg.contains("</svg>"));
        }
    }

    #[test]
    fn table3_has_27_rows() {
        let cache = RunCache::disabled();
        let rows = table3(&tiny_opts(), &cache, &[100_000_000], &[1.0]);
        assert_eq!(rows.len(), 27); // 9 pairs × 3 AQMs
        // CUBIC vs CUBIC must have RR exactly 1.
        for r in rows.iter().filter(|r| r.pair == (CcaKind::Cubic, CcaKind::Cubic)) {
            assert!((r.avg_rr - 1.0).abs() < 1e-9, "{:?}", r);
        }
        let t = render_table3(&rows);
        assert_eq!(t.len(), 27);
    }
}
