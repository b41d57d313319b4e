//! What an experiment hands back: one [`Report`], printed as its tables
//! and written as its `BENCH_<name>.json` artifact from the same cells.

use immortaldb_obs::MetricsSnapshot;

use crate::json::{self, Json};

/// One table cell: the text the table shows and the value the artifact
/// records (a measurement in full, not rounded to the column).
pub struct Cell {
    text: String,
    value: Json,
}

impl Cell {
    pub fn new(text: impl Into<String>, value: impl Into<Json>) -> Cell {
        Cell {
            text: text.into(),
            value: value.into(),
        }
    }

    /// A measurement shown with `decimals` places.
    pub fn fixed(value: f64, decimals: usize) -> Cell {
        Cell::new(format!("{value:.decimals$}"), value)
    }
}

macro_rules! plain_cells {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Cell {
                Cell::new(v.to_string(), v)
            }
        }
    )*};
}
plain_cells!(u64, u32, usize, &str, String);

pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
    /// Lines printed under the table.
    notes: Vec<String>,
}

impl Table {
    pub fn new<H: Into<String>>(
        title: impl Into<String>,
        headers: impl IntoIterator<Item = H>,
        rows: Vec<Vec<Cell>>,
    ) -> Table {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(
            rows.iter().all(|r| r.len() == headers.len()),
            "every row has one cell per column"
        );
        Table {
            title: title.into(),
            headers,
            rows,
            notes: Vec::new(),
        }
    }

    pub fn note(mut self, line: impl Into<String>) -> Table {
        self.notes.push(line.into());
        self
    }

    /// Title, header, rule and right-aligned rows, then the notes.
    fn text(&self, out: &mut String) {
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let cells = self.rows.iter().map(|r| r[i].text.len());
                cells.chain([h.len()]).max().unwrap_or(0)
            })
            .collect();
        out.push_str(&format!("\n== {} ==\n", self.title));
        line(out, &widths, self.headers.iter().map(String::as_str));
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(out, &widths, rule.iter().map(String::as_str));
        for row in &self.rows {
            line(out, &widths, row.iter().map(|c| c.text.as_str()));
        }
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
    }

    fn json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| Json::arr(r.iter().map(|c| c.value.clone())));
        Json::obj([
            ("title", self.title.as_str().into()),
            (
                "columns",
                Json::arr(self.headers.iter().map(String::as_str)),
            ),
            ("rows", Json::Arr(rows.collect())),
            ("notes", Json::arr(self.notes.iter().map(String::as_str))),
        ])
    }
}

/// One right-aligned line of a table.
fn line<'a>(out: &mut String, widths: &[usize], cells: impl Iterator<Item = &'a str>) {
    let padded: Vec<String> = cells.zip(widths).map(|(c, w)| format!("{c:>w$}")).collect();
    out.push_str(&padded.join("  "));
    out.push('\n');
}

/// One experiment's result: its parameters, its tables, the engine
/// metrics it captured and, where it has one, its acceptance floor.
#[derive(Default)]
pub struct Report {
    /// Inputs of the run, and scalar results that no table holds.
    params: Vec<(String, Json)>,
    tables: Vec<Table>,
    /// Labelled engine metrics snapshots: one run, or one per regime or
    /// series.
    metrics: Vec<(String, Json)>,
    /// `Ok(summary)` or `Err(what missed)`; `None` without a floor.
    pub floor: Option<Result<String, String>>,
}

impl Report {
    pub fn param(mut self, name: &str, value: impl Into<Json>) -> Report {
        self.params.push((name.to_string(), value.into()));
        self
    }

    pub fn table(mut self, table: Table) -> Report {
        self.tables.push(table);
        self
    }

    pub fn metrics(mut self, label: impl Into<String>, snapshot: &MetricsSnapshot) -> Report {
        self.metrics.push((label.into(), json::snapshot(snapshot)));
        self
    }

    pub fn floor(mut self, verdict: Result<String, String>) -> Report {
        self.floor = Some(verdict);
        self
    }

    /// The tables as printed, each followed by its notes.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            t.text(&mut out);
        }
        out
    }

    /// The artifact: `figure`, `quick`, `params`, `tables`, `metrics`.
    pub fn json(&self, figure: &str, quick: bool) -> Json {
        Json::obj([
            ("figure", figure.into()),
            ("quick", quick.into()),
            ("params", Json::Obj(self.params.clone())),
            ("tables", Json::arr(self.tables.iter().map(Table::json))),
            ("metrics", Json::Obj(self.metrics.clone())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tables() -> Report {
        let first = Table::new(
            "first",
            ["n", "ms"],
            vec![
                vec![1u64.into(), Cell::fixed(0.126, 2)],
                vec![20u64.into(), Cell::fixed(3.5, 2)],
            ],
        )
        .note("a note");
        let second = Table::new(
            "second",
            ["label", "ratio", "pages"],
            vec![vec![
                "x".into(),
                Cell::new("1.50x", 1.5),
                Cell::new("3 -> 1", Json::arr([3u64, 1])),
            ]],
        );
        Report::default()
            .param("keys", 6u64)
            .table(first)
            .table(second)
    }

    #[test]
    fn a_two_table_report_prints_both_tables() {
        let expected = [
            "",
            "== first ==",
            " n    ms",
            "--  ----",
            " 1  0.13",
            "20  3.50",
            "a note",
            "",
            "== second ==",
            "label  ratio   pages",
            "-----  -----  ------",
            "    x  1.50x  3 -> 1",
            "",
        ];
        assert_eq!(two_tables().text(), expected.join("\n"));
    }

    #[test]
    fn a_two_table_report_writes_both_tables_with_one_value_per_column() {
        assert_eq!(
            two_tables().json("demo", true).to_string(),
            r#"{"figure":"demo","quick":true,"params":{"keys":6},"tables":[{"title":"first","columns":["n","ms"],"rows":[[1,0.126],[20,3.5]],"notes":["a note"]},{"title":"second","columns":["label","ratio","pages"],"rows":[["x",1.5,[3,1]]],"notes":[]}],"metrics":{}}"#
        );
    }

    #[test]
    #[should_panic(expected = "one cell per column")]
    fn a_row_of_the_wrong_width_is_refused() {
        Table::new("t", ["a", "b"], vec![vec![1u64.into()]]);
    }
}
