//! Plain-text experiment tables.
//!
//! Each experiment returns a [`Table`]; the `experiments` binary renders
//! them aligned for the terminal, and the quick goldens under
//! `tests/golden/` pin the same text. Keeping rendering centralized
//! guarantees the tables are regenerable byte-for-byte.

/// A rendered experiment: title, claim under test, columns, rows, notes.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id (e.g. `gauss-mean`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// The paper claim this table checks.
    pub claim: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form observations appended below the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        claim: impl Into<String>,
        headers: Vec<&str>,
    ) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            claim: claim.into(),
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row; must match the header arity.
    pub(crate) fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity mismatch in table {}",
            self.id
        );
        self.rows.push(cells);
    }

    /// Appends an observation note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Renders as an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} [{}]\n", self.title, self.id));
        out.push_str(&format!("   claim: {}\n\n", self.claim));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("  ");
            for (i, cell) in cells.iter().enumerate() {
                line.push_str(&format!("{:width$}  ", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len() + 2;
        out.push_str(&"-".repeat(total.min(120)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("  * {note}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("x", "Test", "claim text", vec!["n", "err"]);
        t.push_row(vec!["100".into(), "0.5".into()]);
        t.push_row(vec!["100000".into(), "0.001".into()]);
        t.note("a note");
        t
    }

    #[test]
    fn render_contains_everything() {
        let s = sample().render();
        assert!(s.contains("Test"));
        assert!(s.contains("claim text"));
        assert!(s.contains("100000"));
        assert!(s.contains("a note"));
    }

    #[test]
    fn columns_are_aligned() {
        let s = sample().render();
        let lines: Vec<&str> = s.lines().collect();
        // header line and the wide row should place "err"/"0.001" at the
        // same column.
        let header = lines.iter().find(|l| l.contains("err")).unwrap();
        let wide = lines.iter().find(|l| l.contains("0.001")).unwrap();
        assert_eq!(
            header.find("err").unwrap(),
            wide.find("0.001").unwrap(),
            "misaligned:\n{s}"
        );
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", "T", "c", vec!["a", "b"]);
        t.push_row(vec!["1".into()]);
    }
}
