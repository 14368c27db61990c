//! Plain-text table rendering and CSV/JSON output for experiment results.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// One rendered experiment result.
#[derive(Clone, Debug)]
pub struct TableOut {
    /// Experiment identifier (e.g. `fig5`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table (paper comparison).
    pub notes: Vec<String>,
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' | '\\' => out.extend(['\\', ch]),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

/// A table cell as a JSON value: a number when it parses as a finite
/// one (re-printed, so the output is valid JSON whatever the cell's
/// spelling), a string otherwise (`2.86x`, `±0.000`, `-`, `NaN`).
fn json_cell(c: &str) -> String {
    match c.parse::<f64>() {
        Ok(v) if v.is_finite() => v.to_string(),
        _ => json_str(c),
    }
}

impl TableOut {
    /// New empty table.
    #[must_use]
    pub fn new(id: &str, title: &str, headers: &[&str]) -> TableOut {
        TableOut {
            id: id.to_owned(),
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row: one cell per column.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "{}: row {cells:?}",
            self.id
        );
        self.rows.push(cells);
    }

    /// Append a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render to stdout.
    pub fn print(&self) {
        println!("\n=== {} — {} ===", self.id, self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let cols: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            println!("  {}", cols.join("  "));
        };
        line(&self.headers);
        println!(
            "  {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for r in &self.rows {
            line(r);
        }
        for n in &self.notes {
            println!("  note: {n}");
        }
    }

    /// `target/experiments/<id>.<ext>`, creating the directory.
    fn out_path(&self, ext: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("target/experiments");
        fs::create_dir_all(&dir)?;
        Ok(dir.join(format!("{}.{ext}", self.id)))
    }

    /// Write as CSV under `target/experiments/<id>.csv`. Returns the path.
    pub fn write_csv(&self) -> std::io::Result<PathBuf> {
        let path = self.out_path("csv")?;
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for r in &self.rows {
            writeln!(f, "{}", r.join(","))?;
        }
        Ok(path)
    }

    /// Write as JSON, one schema for every table: `experiment`, `title`,
    /// `columns`, `rows` (one object per row, keyed by column) and
    /// `notes`. A table with a committed `trajectory` (the experiment
    /// registry names it) is written to that file in the working
    /// directory; the rest go to `target/experiments/<id>.json`. Returns
    /// the path.
    pub fn write_json(&self, trajectory: Option<&str>) -> std::io::Result<PathBuf> {
        let path = match trajectory {
            Some(file) => PathBuf::from(file),
            None => self.out_path("json")?,
        };
        fs::write(&path, self.to_json())?;
        Ok(path)
    }

    fn to_json(&self) -> String {
        let strs = |v: &[String]| v.iter().map(|s| json_str(s)).collect::<Vec<_>>();
        // One item per line.
        let lines = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
        let row = |r: &Vec<String>| {
            let fields = self.headers.iter().zip(r);
            let fields = fields.map(|(h, c)| format!("{}: {}", json_str(h), json_cell(c)));
            format!("{{{}}}", fields.collect::<Vec<_>>().join(", "))
        };
        format!(
            "{{\n  \"experiment\": {},\n  \"title\": {},\n  \"columns\": [{}],\n  \
             \"rows\": {},\n  \"notes\": {}\n}}\n",
            json_str(&self.id),
            json_str(&self.title),
            strs(&self.headers).join(", "),
            lines(self.rows.iter().map(row).collect()),
            lines(strs(&self.notes)),
        )
    }

    /// Look up a cell by row predicate + column header (test helper).
    #[must_use]
    pub fn cell(&self, row_match: &str, col: &str) -> Option<&str> {
        let ci = self.headers.iter().position(|h| h == col)?;
        self.rows
            .iter()
            .find(|r| r.first().is_some_and(|c| c == row_match))
            .and_then(|r| r.get(ci))
            .map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_lookup_by_row_and_column() {
        let mut t = TableOut::new("x", "test", &["mode", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["b".into(), "2".into()]);
        assert_eq!(t.cell("b", "value"), Some("2"));
        assert_eq!(t.cell("c", "value"), None);
        assert_eq!(t.cell("a", "nope"), None);
    }

    #[test]
    #[should_panic(expected = "x: row")]
    fn a_row_must_fill_every_column() {
        let mut t = TableOut::new("x", "test", &["mode", "value"]);
        t.row(vec!["a".into()]);
    }

    #[test]
    fn json_emits_numbers_as_numbers_and_escapes_strings() {
        let mut t = TableOut::new("x", "a \"quoted\" title", &["mode", "tput", "speedup"]);
        t.row(vec!["1g/8a".into(), "98892".into(), "2.86x".into()]);
        t.row(vec!["-".into(), "0.340".into(), "NaN".into()]);
        t.note("line\nbreak");
        assert_eq!(
            t.to_json(),
            r#"{
  "experiment": "x",
  "title": "a \"quoted\" title",
  "columns": ["mode", "tput", "speedup"],
  "rows": [
    {"mode": "1g/8a", "tput": 98892, "speedup": "2.86x"},
    {"mode": "-", "tput": 0.34, "speedup": "NaN"}
  ],
  "notes": [
    "line\u000abreak"
  ]
}
"#
        );
    }
}
