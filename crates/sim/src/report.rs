//! Plain-text tables and CSV files for the reproduction binaries.
//!
//! Every repro binary prints an ASCII table (the paper's rows/series) and
//! writes the same data as CSV under `results/` so the numbers can be
//! plotted or diffed against EXPERIMENTS.md.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use dfcm_trace::io::atomic_write;

/// A simple column-aligned text table.
///
/// ```
/// use dfcm_sim::report::TextTable;
///
/// let mut t = TextTable::new(vec!["bench", "accuracy"]);
/// t.row(vec!["li".to_owned(), "0.73".to_owned()]);
/// let rendered = t.render();
/// assert!(rendered.contains("bench"));
/// assert!(rendered.contains("0.73"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
        self
    }

    /// Iterates over the data rows (without the header), cloned — useful
    /// for merging tables with identical columns.
    pub fn rows(&self) -> impl Iterator<Item = Vec<String>> + '_ {
        self.rows.iter().cloned()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        emit(&self.header, &mut out);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }

    /// The table as CSV text.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            let line: Vec<String> = cells.iter().map(|c| csv_escape(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        emit(&self.header, &mut out);
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }

    /// Writes the CSV form to `path` atomically (staged sibling file
    /// then rename), creating parent directories: an interrupted run
    /// never leaves a truncated table behind.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or the write.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        atomic_write(path.as_ref(), self.to_csv().as_bytes())
    }
}

pub(crate) use dfcm_obs::json::json_string;

fn csv_escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_owned()
    }
}

/// Formats an accuracy as the paper does (two decimals, e.g. `0.73`).
pub fn fmt_accuracy(a: f64) -> String {
    format!("{a:.3}")
}

/// Formats a Kbit size with one decimal.
pub fn fmt_kbits(k: f64) -> String {
    format!("{k:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(vec!["a", "bbbb"]);
        t.row(vec!["xxxxx".into(), "1".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains('a'));
        assert!(lines[1].starts_with('-'));
        assert!(lines[2].contains("xxxxx"));
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = TextTable::new(vec!["x"]);
        t.row(vec!["a,b".into()]);
        t.row(vec!["quo\"te".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"quo\"\"te\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        TextTable::new(vec!["a", "b"]).row(vec!["only one".into()]);
    }

    #[test]
    fn write_csv_creates_dirs() {
        let dir = std::env::temp_dir().join("dfcm_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sub/table.csv");
        let mut t = TextTable::new(vec!["h"]);
        t.row(vec!["v".into()]);
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "h\nv\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_accuracy(0.7351), "0.735");
        assert_eq!(fmt_kbits(204.84), "204.8");
    }
}
