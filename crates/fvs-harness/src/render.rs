//! Plain-text table and series rendering for experiment output.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A simple aligned-column text table.
#[derive(Debug, Clone, Default)]
pub struct TableBuilder {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableBuilder {
    /// New table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        TableBuilder {
            title: title.into(),
            header: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Set the header row.
    pub fn header<I, S>(mut self, cols: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.header = cols.into_iter().map(Into::into).collect();
        self
    }

    /// Append a data row.
    pub fn row<I, S>(&mut self, cols: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cols.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        let all = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |row: &[String], out: &mut String| {
            for (i, cell) in row.iter().enumerate() {
                let pad = widths[i] - cell.chars().count();
                out.push_str(cell);
                if i + 1 < row.len() {
                    out.extend(std::iter::repeat_n(' ', pad + 2));
                }
            }
            out.push('\n');
        };
        if !self.header.is_empty() {
            fmt_row(&self.header, &mut out);
            let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
            out.extend(std::iter::repeat_n('-', total));
            out.push('\n');
        }
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }
}

/// A named (x, y) series — one line of a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Series label.
    pub name: String,
    /// The points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// New empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// y value at the largest x ≤ `x`, if any.
    pub fn value_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .rfind(|(px, _)| *px <= x)
            .map(|(_, y)| *y)
    }

    /// Render several series side by side keyed on x (series must share
    /// x grids; missing cells print empty).
    pub fn render_table(title: &str, series: &[Series]) -> String {
        let mut xs: Vec<f64> = series
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| *x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let mut t = TableBuilder::new(title)
            .header(std::iter::once("x".to_string()).chain(series.iter().map(|s| s.name.clone())));
        for x in xs {
            let mut row = vec![format!("{x:.4}")];
            for s in series {
                let cell = s
                    .points
                    .iter()
                    .find(|(px, _)| (*px - x).abs() < 1e-12)
                    .map(|(_, y)| format!("{y:.4}"))
                    .unwrap_or_default();
                row.push(cell);
            }
            t.row(row);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TableBuilder::new("demo").header(["col", "value"]);
        t.row(["a", "1"]);
        t.row(["longer", "22"]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // header, rule, 2 rows, title line.
        assert_eq!(lines.len(), 5);
        // Columns align: "value" starts at the same offset in all rows.
        let off = lines[1].find("value").unwrap();
        assert_eq!(lines[3].find('1'), Some(off));
    }

    #[test]
    fn series_lookup_and_render() {
        let mut s = Series::new("perf");
        s.push(250.0, 0.5);
        s.push(1000.0, 1.0);
        assert_eq!(s.value_at(500.0), Some(0.5));
        assert_eq!(s.value_at(1000.0), Some(1.0));
        assert_eq!(s.value_at(100.0), None);
        let out = Series::render_table("fig", &[s]);
        assert!(out.contains("perf"));
        assert!(out.contains("250.0000"));
    }
}
