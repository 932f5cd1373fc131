//! The repo-aware lint engine: a lightweight, comment/string-aware
//! line scanner for the few project rules no compiler lint expresses.
//!
//! No external parser: each `.rs` file is split into lines whose code,
//! comment, and string-literal parts are separated by a small state
//! machine ([`scan_file`]), with `#[cfg(test)]` regions and `tests/` /
//! `benches/` paths tracked so rules can scope themselves to production
//! code. Rules ([`rules`]) emit `file:line` diagnostics with stable rule
//! ids. There is no suppression syntax and no allowlist: a finding is
//! fixed, or the rule is wrong.

pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

/// A single finding, attached to a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (see [`rules::RULES`]).
    pub rule: &'static str,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// One source line, decomposed by the scanner.
#[derive(Debug, Clone, Default)]
pub struct ScannedLine {
    /// Code with comments removed and string/char literal *contents*
    /// blanked (delimiters kept), so token rules never match inside
    /// either.
    pub code: String,
    /// The comment text on this line (line or block), if any.
    pub comment: String,
    /// True when the line is inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// A scanned file: decomposed lines plus extracted string literals.
#[derive(Debug, Clone)]
pub struct FileScan {
    /// Repo-relative path (forward slashes).
    pub path: String,
    /// True when the whole file is test/bench scope (`tests/`,
    /// `benches/`, or a `build.rs`).
    pub file_is_test: bool,
    /// Decomposed lines, index 0 = line 1.
    pub lines: Vec<ScannedLine>,
    /// `(line, literal)` for every normal string literal.
    pub strings: Vec<(usize, String)>,
}

/// Outcome of a lint run.
#[derive(Debug)]
pub struct LintReport {
    /// Findings (these gate under `--deny-warnings`).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

// --------------------------------------------------------------------------
// Scanner
// --------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum LexState {
    Normal,
    Str,
    RawStr(usize),
    BlockComment(usize),
}

/// Scans one file's source text into lines, comments, and literals.
/// `rel_path` must use forward slashes.
pub fn scan_file(rel_path: &str, text: &str) -> FileScan {
    let file_is_test = rel_path.contains("tests/")
        || rel_path.contains("benches/")
        || rel_path.ends_with("build.rs");

    let mut lines: Vec<ScannedLine> = Vec::new();
    let mut strings: Vec<(usize, String)> = Vec::new();
    let mut state = LexState::Normal;
    let mut cur_literal = String::new();

    for (idx, raw) in text.lines().enumerate() {
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let chars: Vec<char> = raw.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                LexState::Normal => match c {
                    '/' if next == Some('/') => {
                        comment.push_str(&raw[byte_at(raw, i)..]);
                        break;
                    }
                    '/' if next == Some('*') => {
                        state = LexState::BlockComment(1);
                        i += 2;
                    }
                    '"' => {
                        code.push('"');
                        state = LexState::Str;
                        cur_literal.clear();
                        i += 1;
                    }
                    'r' if next == Some('"') || next == Some('#') => {
                        // Possible raw string: r"..." or r#"..."#.
                        let mut hashes = 0usize;
                        let mut j = i + 1;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j) == Some(&'"') {
                            code.push('r');
                            code.push('"');
                            state = LexState::RawStr(hashes);
                            cur_literal.clear();
                            i = j + 1;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    }
                    '\'' => {
                        // Char literal vs lifetime: a char literal closes
                        // within a few chars ('x', '\n', '\u{..}').
                        if next == Some('\\') {
                            // Escaped char literal: consume to closing '.
                            code.push('\'');
                            i += 2;
                            while i < chars.len() && chars[i] != '\'' {
                                i += 1;
                            }
                            code.push('\'');
                            i += 1;
                        } else if chars.get(i + 2) == Some(&'\'') {
                            code.push('\'');
                            code.push(' ');
                            code.push('\'');
                            i += 3;
                        } else {
                            // Lifetime: keep as-is.
                            code.push('\'');
                            i += 1;
                        }
                    }
                    _ => {
                        code.push(c);
                        i += 1;
                    }
                },
                LexState::Str => match c {
                    '\\' => {
                        cur_literal.push(c);
                        if let Some(n) = next {
                            cur_literal.push(n);
                        }
                        code.push(' ');
                        code.push(' ');
                        i += 2;
                    }
                    '"' => {
                        code.push('"');
                        strings.push((idx + 1, std::mem::take(&mut cur_literal)));
                        state = LexState::Normal;
                        i += 1;
                    }
                    _ => {
                        cur_literal.push(c);
                        code.push(' ');
                        i += 1;
                    }
                },
                LexState::RawStr(h) => {
                    if c == '"' {
                        let mut ok = true;
                        for k in 0..h {
                            if chars.get(i + 1 + k) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            code.push('"');
                            strings.push((idx + 1, std::mem::take(&mut cur_literal)));
                            state = LexState::Normal;
                            i += 1 + h;
                            continue;
                        }
                    }
                    cur_literal.push(c);
                    code.push(' ');
                    i += 1;
                }
                LexState::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        if depth == 1 {
                            state = LexState::Normal;
                        } else {
                            state = LexState::BlockComment(depth - 1);
                        }
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = LexState::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        comment.push(c);
                        i += 1;
                    }
                }
            }
        }
        // A string or raw string continuing past the line end keeps its
        // state; add the newline to the literal.
        if matches!(state, LexState::Str | LexState::RawStr(_)) {
            cur_literal.push('\n');
        }
        lines.push(ScannedLine {
            code,
            comment,
            in_test: false,
        });
    }

    mark_test_regions(&mut lines, file_is_test);
    FileScan {
        path: rel_path.to_string(),
        file_is_test,
        lines,
        strings,
    }
}

fn byte_at(s: &str, char_idx: usize) -> usize {
    s.char_indices()
        .nth(char_idx)
        .map(|(b, _)| b)
        .unwrap_or(s.len())
}

/// Marks lines inside `#[cfg(test)] mod … { … }` regions (and the whole
/// file when it is test scope). Brace counting runs on the blanked code,
/// so braces in strings/comments don't confuse it.
fn mark_test_regions(lines: &mut [ScannedLine], file_is_test: bool) {
    if file_is_test {
        for l in lines.iter_mut() {
            l.in_test = true;
        }
        return;
    }
    let mut i = 0usize;
    while i < lines.len() {
        let code = lines[i].code.trim().to_string();
        if code.starts_with("#[cfg(test)") || code.starts_with("#[cfg(all(test") {
            // Find the opening brace of the item this attribute covers,
            // then consume until its matching close.
            let mut depth = 0i32;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                lines[j].in_test = true;
                for c in lines[j].code.clone().chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        ';' if !opened && depth == 0 => {
                            // e.g. `#[cfg(test)] use …;` — single item.
                            opened = true;
                            depth = 0;
                        }
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            // `#[test]` fns outside a cfg(test) mod (rare inline form).
            if code.starts_with("#[test]") {
                let mut depth = 0i32;
                let mut opened = false;
                let mut j = i;
                while j < lines.len() {
                    lines[j].in_test = true;
                    for c in lines[j].code.clone().chars() {
                        match c {
                            '{' => {
                                depth += 1;
                                opened = true;
                            }
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    if opened && depth <= 0 {
                        break;
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            i += 1;
        }
    }
}

// --------------------------------------------------------------------------
// Driver
// --------------------------------------------------------------------------

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let path = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name == ".git" || name == ".claude" {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Runs the full lint over the repo rooted at `root`.
pub fn run_lint(root: &Path) -> LintReport {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files);

    let mut scans = Vec::with_capacity(files.len());
    for f in &files {
        let Ok(text) = std::fs::read_to_string(f) else {
            continue;
        };
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        scans.push(scan_file(&rel, &text));
    }
    lint_scans(&scans)
}

/// Runs every rule over pre-scanned files (unit-test entry point).
pub fn lint_scans(scans: &[FileScan]) -> LintReport {
    let mut diagnostics = Vec::new();
    for scan in scans {
        rules::check_file(scan, &mut diagnostics);
    }
    rules::check_counter_pairing(scans, &mut diagnostics);
    diagnostics.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });
    LintReport {
        diagnostics,
        files_scanned: scans.len(),
    }
}
