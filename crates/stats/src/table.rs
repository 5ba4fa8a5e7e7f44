//! Plain-text / CSV table rendering.
//!
//! The experiment harness prints each figure of the paper as a table with
//! one row per benchmark plus an `avg` row, in the same order the paper
//! uses, so measured output can be compared against the published bars
//! side by side.

use std::fmt;

/// Column alignment for [`Table`] rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-align the column (default; used for names).
    #[default]
    Left,
    /// Right-align the column (used for numbers).
    Right,
}

/// A simple rectangular table with a header row.
///
/// # Examples
///
/// ```
/// use padlock_stats::{Align, Table};
///
/// let mut t = Table::new(vec!["bench".into(), "XOM".into()]);
/// t.set_align(1, Align::Right);
/// t.push_row(vec!["mcf".into(), "34.76".into()]);
/// assert_eq!(t.render_csv(), "bench,XOM\nmcf,34.76\n");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    header: Vec<String>,
    align: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given header; all columns left-aligned.
    pub fn new(header: Vec<String>) -> Self {
        let n = header.len();
        Self {
            header,
            align: vec![Align::Left; n],
            rows: Vec::new(),
        }
    }

    /// Sets the alignment of column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn set_align(&mut self, col: usize, align: Align) {
        self.align[col] = align;
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn col_count(&self) -> usize {
        self.header.len()
    }

    /// Borrowed view of the data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }

    fn pad(cell: &str, width: usize, align: Align) -> String {
        match align {
            Align::Left => format!("{cell:<width$}"),
            Align::Right => format!("{cell:>width$}"),
        }
    }

    /// Renders the table as aligned plain text.
    pub fn render_text(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| Self::pad(c, widths[i], self.align[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (RFC-4180-style quoting for cells containing
    /// commas, quotes, or newlines).
    pub fn render_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| quote(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["bench".into(), "slowdown".into()]);
        t.set_align(1, Align::Right);
        t.push_row(vec!["gzip".into(), "1.08".into()]);
        t.push_row(vec!["mcf".into(), "34.76".into()]);
        t
    }

    #[test]
    fn text_rendering_aligns_columns() {
        let s = sample().render_text();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Right-aligned number column: "1.08" is padded on the left.
        assert!(lines[2].ends_with("    1.08"), "got {:?}", lines[2]);
        assert!(lines[3].ends_with("34.76"));
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.push_row(vec!["x,y".into(), "he said \"hi\"".into()]);
        let csv = t.render_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new(vec!["only".into()]);
        t.push_row(vec!["a".into(), "b".into()]);
    }

    #[test]
    fn row_and_col_counts() {
        let t = sample();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.col_count(), 2);
        assert_eq!(t.rows()[0][0], "gzip");
    }

    #[test]
    fn display_matches_render_text() {
        let t = sample();
        assert_eq!(t.to_string(), t.render_text());
    }
}
