//! The one report layer of the experiment binaries: a [`Table`] renders
//! as aligned text for stdout and as CSV for the CI artifacts.

use std::fmt::Write as _;
use std::io::{self, ErrorKind};

/// A table of pre-formatted cells with two views: [`render`](Self::render)
/// (fixed-width text) and [`to_csv`](Self::to_csv). A report builds one
/// table and prints both from it, so each column is written once.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must have as many cells as there are headers).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match the header width"
        );
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV: the header and then each row, cells
    /// joined with `,` and every line ending in `\n`. Cells are written
    /// as they are, so they must not contain commas.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for line in std::iter::once(&self.headers).chain(&self.rows) {
            out.push_str(&line.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a normalised value as the paper's figures present them (two
/// decimals).
#[must_use]
pub fn norm(value: f64) -> String {
    format!("{value:.2}")
}

/// Formats an optional count as a report cell: empty for "none".
#[must_use]
pub fn opt_cell(value: Option<u32>) -> String {
    value.map_or_else(String::new, |x| x.to_string())
}

/// Shared artifact tail of the experiment binaries: when the environment
/// variable `env_var` names a file, write `contents()` there and confirm
/// on stdout (`wrote {label} to {path}`); do nothing when it is unset.
///
/// This is binary-exit-path code, not a library API: an unwritable
/// artifact terminates the process with exit code 1, because CI uploads
/// these files with `if-no-files-found: error` and a silent skip would
/// surface as a confusing downstream failure.
pub fn write_env_artifact(env_var: &str, label: &str, contents: impl FnOnce() -> String) {
    let Ok(path) = std::env::var(env_var) else {
        return;
    };
    let path = std::path::PathBuf::from(path);
    match std::fs::write(&path, contents()) {
        Ok(()) => println!("wrote {label} to {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Writes `text` to `out` and flushes it. A reader that has gone away
/// ([`ErrorKind::BrokenPipe`]) is not an error: the result is then
/// `Ok(false)`, so the caller can stop quietly.
///
/// # Errors
///
/// Any other write or flush error.
pub fn write_report(out: &mut impl io::Write, text: &str) -> io::Result<bool> {
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(e),
    }
}

/// Prints `text` on stdout: the one way the figure and table binaries
/// print. When stdout's reader has gone away (`fig5 | head -1`) the process
/// ends quietly with exit code 0; any other write error ends it with code 1.
///
/// Like [`write_env_artifact`] this is binary-exit-path code.
pub fn print_report(text: &str) {
    match write_report(&mut io::stdout().lock(), text) {
        Ok(true) => {}
        Ok(false) => std::process::exit(0),
        Err(e) => {
            eprintln!("failed to write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// Shared flag parser of the experiment binaries: the value following the
/// flag `name` in `args`, parsed as `T`, or `None` when the flag is absent.
///
/// Like [`write_env_artifact`] this is binary-exit-path code: a flag with a
/// missing or unparsable value prints a usage error and exits the process
/// with code 2 instead of being silently ignored.
pub fn arg<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let pos = args.iter().position(|a| a == name)?;
    let Some(value) = args.get(pos + 1) else {
        eprintln!("missing value for {name}");
        std::process::exit(2);
    };
    match value.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("invalid value for {name}: {value}");
            std::process::exit(2);
        }
    }
}

/// Formats a percentage difference between two cycle counts.
#[must_use]
pub fn pct_faster(slow: u64, fast: u64) -> String {
    if fast == 0 {
        return "n/a".into();
    }
    format!("{:+.1}%", (slow as f64 / fast as f64 - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["short", "1"]);
        t.row(vec!["a-much-longer-name", "123456"]);
        let text = t.render();
        assert!(text.contains("name"));
        assert!(text.contains("a-much-longer-name"));
        // All lines have the same alignment prefix width for the value column.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn table_csv_joins_header_and_rows_with_commas() {
        let mut t = Table::new(vec!["name", "value", "note"]);
        t.row(vec!["short", "1", ""]);
        t.row(vec!["a-much-longer-name", "123456", "x"]);
        assert_eq!(
            t.to_csv(),
            "name,value,note\nshort,1,\na-much-longer-name,123456,x\n"
        );
        assert_eq!(Table::new(vec!["only"]).to_csv(), "only\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    /// A writer whose every write fails with `kind`.
    struct Failing(ErrorKind);

    impl io::Write for Failing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn reports_stop_quietly_at_a_closed_reader() {
        let mut out = Vec::new();
        assert!(write_report(&mut out, "a\nb\n").unwrap());
        assert_eq!(out, b"a\nb\n");
        assert!(!write_report(&mut Failing(ErrorKind::BrokenPipe), "a\n").unwrap());
        let err = write_report(&mut Failing(ErrorKind::PermissionDenied), "a\n").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::PermissionDenied);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(norm(1.234), "1.23");
        assert_eq!(pct_faster(150, 100), "+50.0%");
        assert_eq!(pct_faster(100, 0), "n/a");
    }
}
