//! Minimal markdown table rendering for experiment reports.

use std::fmt::Write as _;

/// A markdown table under construction.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row; must match the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width != header width");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as github-flavored markdown with padded columns.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "fmt::Write into a String never fails"
    )]
    pub fn to_markdown(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let fmt_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(c, cell)| format!("{cell:<width$}", width = widths[c]))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header));
        let sep: Vec<String> = (0..cols).map(|c| "-".repeat(widths[c])).collect();
        let _ = writeln!(out, "{}", fmt_row(&sep));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_padded_markdown() {
        let mut t = Table::new("Demo", &["Method", "Acc"]);
        t.row(&["Prodigy".into(), "61.52".into()]);
        t.row(&["GraphPrompter".into(), "68.85".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| Method        | Acc   |"));
        assert!(md.contains("| GraphPrompter | 68.85 |"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only one".into()]);
    }
}
