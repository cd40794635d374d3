//! Plain-text result tables with paper-vs-measured columns, and the
//! per-item [`Report`] the `paper` runner collects into its receipt.

/// A printable experiment table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Append a row of string slices.
    pub fn srow(&mut self, cells: &[&str]) {
        let owned: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        self.row(&owned);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let parts: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |\n", parts.join(" | "))
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        out.push_str(&format!("{}\n", "-".repeat(total)));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// One shape check: a claim about an item's numbers that the `paper`
/// runner turns into an exit code.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// Name, unique within the item.
    pub name: String,
    /// Whether the claim held.
    pub ok: bool,
    /// The values the claim was evaluated on.
    pub detail: String,
}

/// What one `paper` item reports besides its printed tables.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Seeded values: identical on every run of one commit.
    pub numbers: Vec<(String, f64)>,
    /// Wall-clock readings: vary run to run, kept apart for that reason.
    pub timings: Vec<(String, f64)>,
    /// Shape checks, each evaluated exactly once.
    pub checks: Vec<Check>,
}

impl Report {
    /// Record `prefix.<name>` for each of `fields` as deterministic numbers.
    pub fn numbers(&mut self, prefix: &str, fields: &[(&str, f64)]) {
        self.numbers.extend(named(prefix, fields));
    }

    /// Record `prefix.<name>` for each of `fields` as wall-clock readings.
    pub fn timings(&mut self, prefix: &str, fields: &[(&str, f64)]) {
        self.timings.extend(named(prefix, fields));
    }

    /// Record a shape check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        let name = name.to_string();
        self.checks.push(Check { name, ok, detail });
    }

    /// Names of the checks that did not hold.
    pub fn failed(&self) -> Vec<&str> {
        let failed = self.checks.iter().filter(|c| !c.ok);
        failed.map(|c| c.name.as_str()).collect()
    }
}

fn named<'a>(
    prefix: &'a str,
    fields: &'a [(&str, f64)],
) -> impl Iterator<Item = (String, f64)> + 'a {
    fields
        .iter()
        .map(move |(f, v)| (format!("{prefix}.{f}"), *v))
}

/// Format a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Format seconds.
pub fn secs(ms: u64) -> String {
    format!("{:.1}s", ms as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("demo", &["metric", "paper", "measured"]);
        t.srow(&["instant convergence", "95%", "97.1%"]);
        t.row(&["loss".into(), pct(0.02), secs(1500)]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(
            s.contains("| instant convergence | 95%   | 97.1%    |"),
            "{s}"
        );
        assert!(s.contains("2.0%"));
        assert!(s.contains("1.5s"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.srow(&["only one"]);
    }
}
