//! Reader/writer for the GroupLens `u.data` tab-separated rating format.
//!
//! Each line is `user_id<TAB>item_id<TAB>rating<TAB>timestamp` with 1-based
//! ids. With a real MovieLens download this loader reproduces the paper's
//! exact input; the rest of the workspace does not care where the matrix
//! came from.

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use cf_matrix::{ItemId, MatrixBuilder, MatrixError, QuarantineReport, RatingMatrix, UserId};

use crate::Dataset;

/// Accounting from the lenient loader: what was dropped, and why.
///
/// The strict loader fails on the first bad line or rating; production
/// ingestion prefers to survive a partially corrupt feed, so the lenient
/// variants skip bad input and report it here instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Lines that could not be parsed at all (wrong field count,
    /// unparsable numbers, 0-based ids).
    pub malformed_lines: usize,
    /// Parsed triplets dropped by matrix validation (NaN, out-of-scale,
    /// conflicting duplicates).
    pub quarantine: QuarantineReport,
}

impl LoadReport {
    /// Total number of dropped lines/triplets.
    pub fn total_dropped(&self) -> usize {
        self.malformed_lines + self.quarantine.total()
    }

    /// `true` when every input line made it into the matrix.
    pub fn is_clean(&self) -> bool {
        self.total_dropped() == 0
    }
}

/// Errors while parsing `u.data`-format input.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (wrong field count or unparsable numbers).
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of what failed.
        message: String,
    },
    /// The parsed triplets failed matrix validation.
    Matrix(MatrixError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Parse { line, message } => write!(f, "line {line}: {message}"),
            Self::Matrix(e) => write!(f, "invalid rating data: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<MatrixError> for LoadError {
    fn from(e: MatrixError) -> Self {
        Self::Matrix(e)
    }
}

/// Parses `u.data`-format text from any reader. 1-based ids become 0-based
/// dense indices (`id - 1`); blank lines are skipped; the trailing
/// timestamp field is optional and ignored.
pub fn load_movielens_reader<R: Read>(reader: R, name: &str) -> Result<Dataset, LoadError> {
    let mut b = MatrixBuilder::new();
    let reader = BufReader::new(reader);
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if let Some((u, i, r)) = parse_line(&line, idx + 1)? {
            b.push(u, i, r);
        }
    }
    let matrix = b.build()?;
    Ok(Dataset::from_matrix(name, matrix))
}

/// Lenient variant of [`load_movielens_reader`]: malformed lines and
/// invalid ratings are skipped and counted in the returned [`LoadReport`]
/// instead of aborting the load. I/O errors still fail, as does input with
/// no salvageable rating at all.
pub fn load_movielens_reader_lenient<R: Read>(
    reader: R,
    name: &str,
) -> Result<(Dataset, LoadReport), LoadError> {
    let mut b = MatrixBuilder::new();
    let mut report = LoadReport::default();
    let reader = BufReader::new(reader);
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        match parse_line(&line, idx + 1) {
            Ok(Some((u, i, r))) => b.push(u, i, r),
            Ok(None) => {}
            Err(_) => report.malformed_lines += 1,
        }
    }
    let (matrix, quarantine) = b.build_quarantined()?;
    report.quarantine = quarantine;
    Ok((Dataset::from_matrix(name, matrix), report))
}

/// Parses one `u.data` line into a triplet; `Ok(None)` for blank lines.
fn parse_line(line: &str, line_no: usize) -> Result<Option<(UserId, ItemId, f64)>, LoadError> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let mut fields = trimmed.split_whitespace();
    let user: u32 = next_field(&mut fields, line_no, "user id")?;
    let item: u32 = next_field(&mut fields, line_no, "item id")?;
    let rating: f64 = next_field(&mut fields, line_no, "rating")?;
    if user == 0 || item == 0 {
        return Err(LoadError::Parse {
            line: line_no,
            message: "MovieLens ids are 1-based; found 0".into(),
        });
    }
    Ok(Some((UserId::new(user - 1), ItemId::new(item - 1), rating)))
}

fn next_field<T: std::str::FromStr>(
    fields: &mut std::str::SplitWhitespace<'_>,
    line: usize,
    what: &str,
) -> Result<T, LoadError> {
    let raw = fields.next().ok_or_else(|| LoadError::Parse {
        line,
        message: format!("missing {what}"),
    })?;
    raw.parse().map_err(|_| LoadError::Parse {
        line,
        message: format!("cannot parse {what} from {raw:?}"),
    })
}

/// Loads a `u.data` file from disk.
pub fn load_movielens(path: impl AsRef<Path>) -> Result<Dataset, LoadError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path)?;
    let name = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "movielens".into());
    load_movielens_reader(file, &name)
}

/// Loads a `u.data` file from disk leniently; see
/// [`load_movielens_reader_lenient`].
pub fn load_movielens_lenient(path: impl AsRef<Path>) -> Result<(Dataset, LoadReport), LoadError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path)?;
    let name = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "movielens".into());
    load_movielens_reader_lenient(file, &name)
}

/// Parses `u.data`-format text from a string (handy for tests/examples).
pub fn load_movielens_str(text: &str, name: &str) -> Result<Dataset, LoadError> {
    load_movielens_reader(text.as_bytes(), name)
}

/// Lenient string-input variant; see [`load_movielens_reader_lenient`].
pub fn load_movielens_str_lenient(
    text: &str,
    name: &str,
) -> Result<(Dataset, LoadReport), LoadError> {
    load_movielens_reader_lenient(text.as_bytes(), name)
}

/// Writes a matrix back out in `u.data` format (1-based ids, timestamp 0).
/// Round-trips through [`load_movielens_str`].
pub fn save_movielens<W: Write>(m: &RatingMatrix, mut out: W) -> std::io::Result<()> {
    let mut buf = std::io::BufWriter::new(&mut out);
    for (u, i, r) in m.triplets() {
        // Integer ratings print without a decimal point, matching the
        // original file format.
        if cf_matrix::approx_zero(r.fract()) {
            writeln!(buf, "{}\t{}\t{}\t0", u.raw() + 1, i.raw() + 1, r as i64)?;
        } else {
            writeln!(buf, "{}\t{}\t{}\t0", u.raw() + 1, i.raw() + 1, r)?;
        }
    }
    buf.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "1\t2\t5\t881250949\n2\t1\t3\t891717742\n2\t3\t4\t878887116\n";

    #[test]
    fn lenient_loader_skips_and_counts_bad_input() {
        let text = "1\t1\t4\t0\n\
                    garbage line\n\
                    0\t1\t3\t0\n\
                    2\t1\tNaN\t0\n\
                    2\t2\t9\t0\n\
                    2\t3\t2\t0\n";
        let (d, report) = load_movielens_str_lenient(text, "dirty").unwrap();
        assert_eq!(report.malformed_lines, 2); // garbage + 0-based id
        assert_eq!(report.quarantine.non_finite, 1);
        assert_eq!(report.quarantine.out_of_scale, 1);
        assert_eq!(report.total_dropped(), 4);
        assert!(!report.is_clean());
        assert_eq!(d.matrix.num_ratings(), 2);
        assert_eq!(d.matrix.get(UserId::new(1), ItemId::new(2)), Some(2.0));
    }

    #[test]
    fn lenient_loader_is_clean_on_valid_input_and_matches_strict() {
        let (d, report) = load_movielens_str_lenient(SAMPLE, "sample").unwrap();
        assert!(report.is_clean());
        let strict = load_movielens_str(SAMPLE, "sample").unwrap();
        let a: Vec<_> = d.matrix.triplets().collect();
        let b: Vec<_> = strict.matrix.triplets().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn lenient_loader_with_nothing_salvageable_errors() {
        let e = load_movielens_str_lenient("not\ta\tline\n", "x").unwrap_err();
        assert!(matches!(e, LoadError::Matrix(MatrixError::Empty)), "{e}");
    }

    #[test]
    fn parses_sample_lines() {
        let d = load_movielens_str(SAMPLE, "sample").unwrap();
        assert_eq!(d.matrix.num_users(), 2);
        assert_eq!(d.matrix.num_items(), 3);
        assert_eq!(d.matrix.get(UserId::new(0), ItemId::new(1)), Some(5.0));
        assert_eq!(d.matrix.get(UserId::new(1), ItemId::new(0)), Some(3.0));
    }

    #[test]
    fn skips_blank_lines_and_tolerates_missing_timestamp() {
        let d = load_movielens_str("1\t1\t4\n\n2\t2\t2\t0\n", "x").unwrap();
        assert_eq!(d.matrix.num_ratings(), 2);
    }

    #[test]
    fn rejects_zero_ids() {
        let e = load_movielens_str("0\t1\t3\t0\n", "x").unwrap_err();
        assert!(matches!(e, LoadError::Parse { line: 1, .. }), "{e}");
    }

    #[test]
    fn rejects_garbage_fields() {
        let e = load_movielens_str("1\tfoo\t3\t0\n", "x").unwrap_err();
        assert!(e.to_string().contains("item id"), "{e}");
        let e = load_movielens_str("1\t2\n", "x").unwrap_err();
        assert!(e.to_string().contains("missing rating"), "{e}");
    }

    #[test]
    fn rejects_out_of_scale_ratings_via_matrix_validation() {
        let e = load_movielens_str("1\t1\t9\t0\n", "x").unwrap_err();
        assert!(matches!(e, LoadError::Matrix(_)), "{e}");
    }

    #[test]
    fn round_trips_through_save() {
        let d = load_movielens_str(SAMPLE, "sample").unwrap();
        let mut out = Vec::new();
        save_movielens(&d.matrix, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let d2 = load_movielens_str(&text, "sample2").unwrap();
        let a: Vec<_> = d.matrix.triplets().collect();
        let b: Vec<_> = d2.matrix.triplets().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn file_loader_reads_from_disk() {
        let dir = std::env::temp_dir().join("cf_data_loader_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("u.data");
        std::fs::write(&path, SAMPLE).unwrap();
        let d = load_movielens(&path).unwrap();
        assert_eq!(d.matrix.num_ratings(), 3);
        assert_eq!(d.name, "u.data");
        std::fs::remove_file(&path).ok();
    }
}
