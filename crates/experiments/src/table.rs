//! Minimal typed tables with markdown rendering.

use std::fmt;

/// A rectangular table with a title, caption, and header.
#[derive(Clone, Debug)]
pub struct Table {
    /// The experiment/table title.
    pub title: String,
    /// A one-line caption tying the table to the paper.
    pub caption: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of rendered cells (each the same length as `columns`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, caption: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            caption: caption.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "ragged table row");
        self.rows.push(row);
    }

    /// Renders the table as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n{}\n\n", self.title, self.caption));
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.columns.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_markdown())
    }
}

/// Renders a cell.
pub fn cell(x: impl ToString) -> String {
    x.to_string()
}

/// Renders an optional cell: the value, or `—` when there is none.
pub fn or_dash(x: Option<impl ToString>) -> String {
    x.map_or_else(|| "—".to_string(), |x| x.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("T", "caption", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### T"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let mut t = Table::new("T", "c", &["a", "b"]);
        t.push(vec!["1".into()]);
    }
}
