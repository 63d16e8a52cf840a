//! Aligned-table printing and CSV output.

use std::fmt::Write as _;
use std::path::Path;

/// A simple results table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:>w$}", w = w);
            }
            out.push('\n');
        };
        line(&self.headers, &mut out);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Prints the aligned table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as CSV.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = String::new();
        let escape = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Formats a float with `digits` decimals.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["x", "value"]);
        t.row(vec!["1", "10.0"]);
        t.row(vec!["100", "2.5"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("value"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn row_length_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("dpack_bench_test");
        let path = dir.join("t.csv");
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "x,y"]);
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,\"x,y\"\n");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fmt_digits() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(2.0, 0), "2");
    }
}
