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
use crate::runner::AveragedResult;
use crate::scenario::{
    inter_pairs, intra_pairs, paper_pairs, RunOptions, ScenarioConfig, PAPER_QUEUES_BDP,
};
use crate::svg::{ChartSpec, Series};
use crate::sweep::sweep;
use elephants_aqm::AqmKind;
use elephants_cca::CcaKind;
use elephants_metrics::{relative_retransmissions, rr_is_defined};

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

/// A column of a panel: `(CSV header, legend name, one y per x)`.
type Column = (String, String, Vec<f64>);

impl FigureOutput {
    fn new(id: &'static str, caption: String) -> Self {
        FigureOutput { id, caption, text: String::new(), tables: Vec::new(), charts: Vec::new() }
    }

    /// An output that is one table: the caption, then the table as text
    /// and as `OUT/<id>/<name>.csv`.
    pub fn table(id: &'static str, caption: &str, name: &str, table: TextTable) -> Self {
        let text = format!("\n{}", table.render());
        FigureOutput { text, tables: vec![(name.into(), table)], ..Self::new(id, caption.into()) }
    }

    /// Add one panel: an `== heading ==` text block over the table `name`
    /// (a row per `x`, a column per series, `decimals` places) and the
    /// chart `name` drawing each column against `x`.
    fn panel(
        &mut self,
        name: String,
        heading: &str,
        spec: ChartSpec,
        (x_header, x): (&str, &[(f64, String)]),
        columns: Vec<Column>,
        decimals: usize,
    ) {
        let header = std::iter::once(x_header.to_string());
        let mut t = TextTable::new(header.chain(columns.iter().map(|c| c.0.clone())).collect());
        for (i, (_, label)) in x.iter().enumerate() {
            let cells = columns.iter().map(|c| format!("{:.*}", decimals, c.2[i]));
            t.row(std::iter::once(label.clone()).chain(cells).collect());
        }
        self.text.push_str(&format!("\n== {heading} ==\n{}", t.render()));
        let series = columns
            .into_iter()
            .map(|(_, name, ys)| Series { name, points: x.iter().map(|p| p.0).zip(ys).collect() })
            .collect();
        self.charts.push((name.clone(), spec, series));
        self.tables.push((name, t));
    }

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

/// A chart over a logarithmic x axis (buffer size or bandwidth).
fn log_chart(title: String, x_label: &str, y_label: &str) -> ChartSpec {
    let (x_label, y_label) = (x_label.into(), y_label.into());
    ChartSpec { title, x_label, y_label, log_x: true, ..Default::default() }
}

/// `metric` for each pair (a column each) at each of `bws`, one AQM and buffer.
fn bw_columns(
    pairs: &[(CcaKind, CcaKind)],
    (aqm, buf): (AqmKind, f64),
    metric: fn(&AveragedResult) -> f64,
    opts: &RunOptions,
    cache: &RunCache,
    bws: &[u64],
) -> Vec<Vec<f64>> {
    let column = |&(cca1, cca2): &(CcaKind, CcaKind)| {
        let configs: Vec<ScenarioConfig> =
            bws.iter().map(|&bw| ScenarioConfig::new(cca1, cca2, aqm, buf, bw, opts)).collect();
        sweep(&configs, opts.repeats, cache).iter().map(metric).collect()
    };
    pairs.iter().map(column).collect()
}

/// The x axis of the bandwidth panels.
fn bw_axis(bws: &[u64]) -> Vec<(f64, String)> {
    bws.iter().map(|&bw| (bw as f64, bw_label(bw))).collect()
}

fn throughput_figure(
    id: &'static str,
    aqm: AqmKind,
    opts: &RunOptions,
    cache: &RunCache,
    bws: &[u64],
) -> FigureOutput {
    let caption = "Per-sender throughput of TCP variants vs CUBIC over buffer size, AQM=";
    let mut fig = FigureOutput::new(id, format!("{caption}{aqm}"));
    let buffers: Vec<(f64, String)> =
        PAPER_QUEUES_BDP.iter().map(|&q| (q, format!("{q}"))).collect();
    for (cca1, cca2) in inter_pairs() {
        for &bw in bws {
            let configs: Vec<ScenarioConfig> = PAPER_QUEUES_BDP
                .iter()
                .map(|&q| ScenarioConfig::new(cca1, cca2, aqm, q, bw, opts))
                .collect();
            let results = sweep(&configs, opts.repeats, cache);
            let sender = |i: usize, cca: CcaKind| -> Column {
                let mbps = results.iter().map(|r| r.sender_mbps.get(i).copied().unwrap_or(0.0));
                (format!("{}_mbps", cca.name()), cca.pretty().into(), mbps.collect())
            };
            let bw = bw_label(bw);
            let title = format!("{} vs {} @ {bw} ({aqm})", cca1.pretty(), cca2.pretty());
            fig.panel(
                format!("{}_vs_{}_{bw}", cca1.name(), cca2.name()),
                &title,
                log_chart(title.clone(), "buffer (BDP)", "throughput (Mbps)"),
                ("buffer_bdp", &buffers),
                vec![sender(0, cca1), sender(1, cca2)],
                2,
            );
        }
    }
    fig
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
    let caption = format!("Jain's fairness index, AQM={aqm}, inter/intra, buffers 2 & 16 BDP");
    let mut fig = FigureOutput::new(id, caption);
    let x = bw_axis(bws);
    for (mode, pairs) in [("inter", inter_pairs()), ("intra", intra_pairs())] {
        for &buf in &FIGURE_BUFFERS_BDP {
            let jain = bw_columns(&pairs, (aqm, buf), |r| r.jain, opts, cache, bws);
            let columns = pairs.iter().zip(jain).map(|(&(a, b), col)| {
                let legend = format!("{} vs {}", a.pretty(), b.pretty());
                (format!("{}_vs_{}", a.name(), b.name()), legend, col)
            });
            fig.panel(
                format!("{mode}_{buf}bdp"),
                &format!("Jain index, {mode}-CCA, buffer {buf} BDP ({aqm})"),
                log_chart(
                    format!("Jain index, {mode}-CCA, {buf} BDP ({aqm})"),
                    "bottleneck bandwidth (bps)",
                    "Jain index",
                ),
                ("bw", &x),
                columns.collect(),
                3,
            );
        }
    }
    fig
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
    metric: fn(&AveragedResult) -> f64,
    opts: &RunOptions,
    cache: &RunCache,
    bws: &[u64],
) -> FigureOutput {
    let caption = format!("Intra-CCA {metric_name} for FIFO, RED and FQ_CODEL at 2 & 16 BDP");
    let mut fig = FigureOutput::new(id, caption);
    let x = bw_axis(bws);
    let pairs = intra_pairs();
    for aqm in AqmKind::PAPER_SET {
        for &buf in &FIGURE_BUFFERS_BDP {
            let values = bw_columns(&pairs, (aqm, buf), metric, opts, cache, bws);
            let columns = pairs.iter().zip(values).map(|(&(cca, _), col)| {
                (cca.pretty().to_string(), cca.pretty().to_string(), col)
            });
            fig.panel(
                format!("{}_{}bdp", aqm.name(), buf),
                &format!("{metric_name}, intra-CCA, {aqm}, buffer {buf} BDP"),
                log_chart(
                    format!("{metric_name}, intra-CCA, {aqm}, {buf} BDP"),
                    "bottleneck bandwidth (bps)",
                    metric_name,
                ),
                ("bw", &x),
                columns.collect(),
                3,
            );
        }
    }
    fig
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
    let mut rows = Vec::new();
    // The paper's Table 3 lists FQ_CODEL last.
    let mut aqms = AqmKind::PAPER_SET;
    aqms.sort_by_key(|&aqm| aqm == AqmKind::FqCodel);
    for aqm in aqms {
        // One pair's results per queue x bandwidth condition.
        let conditions = |cca1: CcaKind, cca2: CcaKind| {
            let configs: Vec<ScenarioConfig> = queues
                .iter()
                .flat_map(|&q| bws.iter().map(move |&bw| (q, bw)))
                .map(|(q, bw)| ScenarioConfig::new(cca1, cca2, aqm, q, bw, opts))
                .collect();
            sweep(&configs, opts.repeats, cache)
        };
        let by_pair: Vec<_> =
            paper_pairs().into_iter().map(|(c1, c2)| ((c1, c2), conditions(c1, c2))).collect();
        // CUBIC-CUBIC reference retransmissions per condition.
        let (_, reference) = by_pair
            .iter()
            .find(|(pair, _)| *pair == (CcaKind::Cubic, CcaKind::Cubic))
            .expect("the paper's pairs include CUBIC vs CUBIC");

        for (pair, results) in &by_pair {
            let n = results.len() as f64;
            let avg_phi = results.iter().map(|r| r.utilization).sum::<f64>() / n;
            let avg_jain = results.iter().map(|r| r.jain).sum::<f64>() / n;
            // RR per condition, then averaged (paper Eq. 4 then Avg(RR)).
            let rrs: Vec<f64> = results
                .iter()
                .zip(reference)
                .map(|(r, c)| (r.retransmits.round() as u64, c.retransmits.round() as u64))
                .map(|(retx, cubic_retx)| relative_retransmissions(retx, cubic_retx))
                .filter(|&rr| rr_is_defined(rr))
                .collect();
            let avg_rr =
                if rrs.is_empty() { f64::NAN } else { rrs.iter().sum::<f64>() / rrs.len() as f64 };
            rows.push(Table3Row { pair: *pair, aqm, avg_phi, avg_rr, avg_jain });
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
    use elephants_netsim::CheckMode;

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
        let cache = RunCache::disabled().check(CheckMode::Audit);
        let rows = table3(&tiny_opts(), &cache, &[100_000_000], &[1.0]);
        assert_eq!(rows.len(), 27); // 9 pairs × 3 AQMs
        // One run a row: the CUBIC-CUBIC reference is its own row's run.
        assert_eq!(cache.checked_runs(), 27);
        assert_eq!(cache.check_violations(), 0);
        // CUBIC vs CUBIC must have RR exactly 1.
        for r in rows.iter().filter(|r| r.pair == (CcaKind::Cubic, CcaKind::Cubic)) {
            assert!((r.avg_rr - 1.0).abs() < 1e-9, "{:?}", r);
        }
        let t = render_table3(&rows);
        assert_eq!(t.len(), 27);
    }
}
