//! Minimal fixed-width text tables for the regenerator reports.

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub(crate) struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub(crate) fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; the cell count must match the header.
    pub(crate) fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "ragged table row");
        self.rows.push(row);
        self
    }

    /// Renders with aligned columns and a separator under the header.
    pub(crate) fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for c in 0..ncols {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cells[c], width = widths[c]));
            }
            line
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(out.len() - 1));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(["k", "eff"]);
        t.row(["120", "86.7"]);
        t.row(["300", "89.4"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("eff"));
        assert!(lines[3].contains("89.4"));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_row_rejected() {
        TextTable::new(["a", "b"]).row(["only-one"]);
    }
}
