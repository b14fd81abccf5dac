//! Plain-text tables and CSV output for figure/table binaries.

use std::fmt::Write as _;
use std::path::Path;

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}", cell, w = widths[i]);
                if i + 1 < ncols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Render one `prefix: column=cell ...` line per row, the greppable
    /// form a claim target prints.
    pub fn render_kv(&self, prefix: &str) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let cells: Vec<String> =
                self.header.iter().zip(row).map(|(h, cell)| format!("{h}={cell}")).collect();
            let _ = writeln!(out, "{prefix}: {}", cells.join(" "));
        }
        out
    }

    /// Render as CSV (RFC-4180-lite; cells with commas get quoted).
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Write the CSV rendering to `path` (creating parent directories).
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

/// Pretty bandwidth label ("100M", "25G").
pub fn bw_label(bw_bps: u64) -> String {
    if bw_bps.is_multiple_of(1_000_000_000) {
        format!("{}G", bw_bps / 1_000_000_000)
    } else {
        format!("{}M", bw_bps / 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a", "bbbb"]);
        t.row(vec!["xxxxx", "1"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a    "));
        assert!(lines[2].starts_with("xxxxx"));
    }

    #[test]
    #[should_panic]
    fn rejects_width_mismatch() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn kv_lines_pair_each_cell_with_its_column() {
        let mut t = TextTable::new(vec!["ratio", "share"]);
        t.row(vec!["1", "0.1177"]);
        t.row(vec!["2", "0.3085"]);
        assert_eq!(t.render_kv("rtt"), "rtt: ratio=1 share=0.1177\nrtt: ratio=2 share=0.3085\n");
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = TextTable::new(vec!["x", "y"]);
        t.row(vec!["a,b", "he said \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    fn bw_labels() {
        assert_eq!(bw_label(100_000_000), "100M");
        assert_eq!(bw_label(25_000_000_000), "25G");
    }
}
