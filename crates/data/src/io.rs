//! Plain-text matrix I/O, so the harnesses can run on *real* datasets
//! (e.g. the actual UCI files the paper used) when available.
//!
//! Format: one row per line; fields separated by commas and/or whitespace;
//! `#`-prefixed lines are comments; blank lines ignored. All rows must have
//! equal field counts.

use dlra_linalg::Matrix;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// Errors from matrix file I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A field failed to parse as `f64`.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending field.
        field: String,
    },
    /// Ragged rows.
    Ragged {
        /// 1-based line number.
        line: usize,
        /// Fields found on this line.
        got: usize,
        /// Fields expected (from the first data line).
        expected: usize,
    },
    /// No data lines at all.
    Empty,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io: {e}"),
            IoError::Parse { line, field } => {
                write!(f, "line {line}: cannot parse {field:?} as a number")
            }
            IoError::Ragged {
                line,
                got,
                expected,
            } => write!(f, "line {line}: {got} fields, expected {expected}"),
            IoError::Empty => write!(f, "no data rows"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parses a matrix from anything readable (file contents, in-memory text).
pub fn read_matrix(reader: impl BufRead) -> Result<Matrix, IoError> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut expected = 0usize;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|s| !s.is_empty())
            .collect();
        let mut row = Vec::with_capacity(fields.len());
        for f in fields {
            row.push(f.parse::<f64>().map_err(|_| IoError::Parse {
                line: idx + 1,
                field: f.to_string(),
            })?);
        }
        if rows.is_empty() {
            expected = row.len();
        } else if row.len() != expected {
            return Err(IoError::Ragged {
                line: idx + 1,
                got: row.len(),
                expected,
            });
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err(IoError::Empty);
    }
    Matrix::from_rows(&rows).map_err(|_| IoError::Empty)
}

/// Loads a matrix from a file path.
pub fn load_matrix(path: impl AsRef<Path>) -> Result<Matrix, IoError> {
    let file = std::fs::File::open(path)?;
    read_matrix(std::io::BufReader::new(file))
}

/// Writes a matrix as comma-separated text (full `f64` round-trip
/// precision).
pub fn save_matrix(path: impl AsRef<Path>, m: &Matrix) -> Result<(), IoError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    for i in 0..m.rows() {
        let row = m.row(i);
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                write!(w, ",")?;
            }
            // `{:?}` prints the shortest representation that round-trips.
            write!(w, "{v:?}")?;
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlra_util::Rng;
    use std::io::Cursor;

    /// A file in the workspace's build tree, `target/tmp`.
    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"));
        std::fs::create_dir_all(dir).unwrap();
        dir.join(format!("dlra_io_test_{}_{name}", std::process::id()))
    }

    #[test]
    fn parses_commas_whitespace_comments() {
        let text = "# header\n1, 2.5, -3\n\n4 5 6\n7,\t8 ,9\n";
        let m = read_matrix(Cursor::new(text)).unwrap();
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.row(0), &[1.0, 2.5, -3.0]);
        assert_eq!(m.row(2), &[7.0, 8.0, 9.0]);
    }

    #[test]
    fn rejects_ragged_and_garbage() {
        assert!(matches!(
            read_matrix(Cursor::new("1 2\n3\n")),
            Err(IoError::Ragged { line: 2, .. })
        ));
        assert!(matches!(
            read_matrix(Cursor::new("1 x\n")),
            Err(IoError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_matrix(Cursor::new("# only comments\n")),
            Err(IoError::Empty)
        ));
    }

    #[test]
    fn round_trips_exactly() {
        let mut rng = Rng::new(1);
        let m = Matrix::gaussian(7, 5, &mut rng);
        let path = tmp("roundtrip.csv");
        save_matrix(&path, &m).unwrap();
        let back = load_matrix(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(m, back);
    }

    #[test]
    fn scientific_notation_and_specials() {
        let m = read_matrix(Cursor::new("1e-3 2.5E2\n-0.0 1e10\n")).unwrap();
        assert_eq!(m[(0, 0)], 1e-3);
        assert_eq!(m[(0, 1)], 250.0);
        assert_eq!(m[(1, 1)], 1e10);
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_matrix("/nonexistent/definitely/not/here.csv"),
            Err(IoError::Io(_))
        ));
    }
}
