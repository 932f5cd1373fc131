//! The rule catalog.
//!
//! Every rule works on the scanner's decomposed lines ([`super::FileScan`]):
//! comments and string contents are already blanked out of `code`, and
//! `in_test` marks `#[cfg(test)]` regions plus `tests/`/`benches/` files,
//! so the matching below is plain token scanning — deliberately simple,
//! reviewable, and dependency-free.

use super::{Diagnostic, FileScan};

/// Static description of one rule, for `--list-rules`.
pub struct RuleInfo {
    /// Stable id used in diagnostics.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// The full catalog. Rules a compiler lint, a `clippy.toml` entry or
/// module privacy can enforce live there instead (see DESIGN.md §9.1).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "float-eq",
        summary: "no ==/!= against a float literal in production code; use the \
                  cf_matrix approx helpers",
    },
    RuleInfo {
        id: "counter-pairing",
        summary: "every online.degrade.* / online.neighbor_cache.* / online.topn.* / \
                  cache.* counter increment site must have a matching test reference",
    },
    RuleInfo {
        id: "unwind-safe-mut",
        summary: "no AssertUnwindSafe over a closure capturing &mut (over-broad \
                  unwind capture can observe broken invariants)",
    },
];

/// Counter-name prefixes that require a paired test reference.
const PAIRED_COUNTER_PREFIXES: &[&str] = &[
    "online.degrade.",
    "online.neighbor_cache.",
    "online.topn.",
    "cache.",
];

/// Runs every single-file rule over one scan.
pub fn check_file(scan: &FileScan, out: &mut Vec<Diagnostic>) {
    float_eq(scan, out);
    unwind_safe_mut(scan, out);
}

// --------------------------------------------------------------------------
// float-eq
// --------------------------------------------------------------------------

/// True when the text immediately right of an operator begins with a
/// float literal (`0.0`, `1.`, `1e-9`, `2.5f64`, …).
fn starts_with_float_literal(s: &str) -> bool {
    let s = s.trim_start();
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    if i == 0 {
        return false;
    }
    if i < b.len() && b[i] == b'.' {
        // Digits then a dot not followed by an identifier (so `1.max(x)`
        // method calls don't count — and those are int anyway).
        let after = b.get(i + 1);
        return !after.is_some_and(|c| c.is_ascii_alphabetic() && !matches!(c, b'e' | b'E'))
            || b.get(i + 2)
                .is_some_and(|c| c.is_ascii_digit() || *c == b'-');
    }
    // Scientific without a dot: 1e-9.
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        let rest = &b[i + 1..];
        let rest = rest
            .strip_prefix(b"-")
            .or(rest.strip_prefix(b"+"))
            .unwrap_or(rest);
        return rest.first().is_some_and(|c| c.is_ascii_digit());
    }
    false
}

/// True when the text immediately left of an operator ends with a float
/// literal.
fn ends_with_float_literal(s: &str) -> bool {
    let s = s.trim_end();
    let s = s
        .strip_suffix("f64")
        .or_else(|| s.strip_suffix("f32"))
        .unwrap_or(s);
    let b = s.as_bytes();
    let mut i = b.len();
    while i > 0 && (b[i - 1].is_ascii_digit() || b[i - 1] == b'_') {
        i -= 1;
    }
    if i == b.len() {
        return false;
    }
    if i > 0 && b[i - 1] == b'.' {
        // `x.0` tuple access vs `1.0` literal: require a digit before the
        // dot (or nothing, for `.5`).
        let mut j = i - 1;
        while j > 0 && b[j - 1].is_ascii_digit() {
            j -= 1;
        }
        return j == 0
            || !b[j - 1].is_ascii_alphanumeric()
                && b[j - 1] != b'_'
                && b[j - 1] != b')'
                && b[j - 1] != b']';
    }
    // Scientific: …1e-9 / …1e9.
    if i > 0 && (b[i - 1] == b'-' || b[i - 1] == b'+') {
        i -= 1;
    }
    if i > 0 && (b[i - 1] == b'e' || b[i - 1] == b'E') {
        let mut j = i - 1;
        let mut digits = false;
        while j > 0 && (b[j - 1].is_ascii_digit() || b[j - 1] == b'.' || b[j - 1] == b'_') {
            digits = true;
            j -= 1;
        }
        return digits;
    }
    false
}

fn float_eq(scan: &FileScan, out: &mut Vec<Diagnostic>) {
    for (i, l) in scan.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        for op in ["==", "!="] {
            let mut from = 0;
            while let Some(off) = l.code[from..].find(op) {
                let pos = from + off;
                from = pos + op.len();
                // Skip `<=`-style neighbors and pattern arms (`=>`).
                let before = l.code[..pos].chars().next_back();
                let after = l.code[pos + op.len()..].chars().next();
                if matches!(before, Some('=' | '<' | '>' | '!')) || matches!(after, Some('=' | '>'))
                {
                    continue;
                }
                if starts_with_float_literal(&l.code[pos + op.len()..])
                    || ends_with_float_literal(&l.code[..pos])
                {
                    out.push(Diagnostic {
                        rule: "float-eq",
                        path: scan.path.clone(),
                        line: i + 1,
                        message: format!(
                            "float `{op}` against a literal; use \
                             cf_matrix::approx_eq / approx_zero"
                        ),
                    });
                }
            }
        }
    }
}

// --------------------------------------------------------------------------
// unwind-safe-mut
// --------------------------------------------------------------------------

fn unwind_safe_mut(scan: &FileScan, out: &mut Vec<Diagnostic>) {
    for (i, l) in scan.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let Some(pos) = l.code.find("AssertUnwindSafe(") else {
            continue;
        };
        // Collect the parenthesized argument, possibly across lines.
        let mut depth = 0i32;
        let mut arg = String::new();
        let mut done = false;
        'outer: for (j, line) in scan.lines.iter().enumerate().skip(i).take(50) {
            let start = if j == i {
                pos + "AssertUnwindSafe".len()
            } else {
                0
            };
            for c in line.code[start..].chars() {
                match c {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            done = true;
                            break 'outer;
                        }
                    }
                    _ => {}
                }
                if depth > 0 {
                    arg.push(c);
                }
            }
            arg.push('\n');
        }
        if done && arg.contains("&mut ") {
            out.push(Diagnostic {
                rule: "unwind-safe-mut",
                path: scan.path.clone(),
                line: i + 1,
                message: "AssertUnwindSafe over a closure capturing `&mut`; a caught \
                          panic can leave the borrowed state half-mutated — narrow \
                          the capture to shared/owned data"
                    .to_string(),
            });
        }
    }
}

// --------------------------------------------------------------------------
// counter-pairing (cross-file)
// --------------------------------------------------------------------------

/// Checks that every gated counter increment in production code has a
/// matching reference (the exact metric name) somewhere in test code.
pub fn check_counter_pairing(scans: &[FileScan], out: &mut Vec<Diagnostic>) {
    // Pass 1: every string literal that appears in test scope.
    let mut test_literals: Vec<&str> = Vec::new();
    for scan in scans {
        for (line, lit) in &scan.strings {
            let in_test = scan.lines.get(line - 1).is_some_and(|l| l.in_test);
            if in_test {
                test_literals.push(lit.as_str());
            }
        }
    }
    // Pass 2: production counter!/gauge! sites with a gated prefix.
    for scan in scans {
        for (line, lit) in &scan.strings {
            let Some(l) = scan.lines.get(line - 1) else {
                continue;
            };
            if l.in_test || !l.code.contains("counter!") {
                continue;
            }
            if !PAIRED_COUNTER_PREFIXES.iter().any(|p| lit.starts_with(p)) {
                continue;
            }
            if !test_literals.iter().any(|t| t.contains(lit.as_str())) {
                out.push(Diagnostic {
                    rule: "counter-pairing",
                    path: scan.path.clone(),
                    line: *line,
                    message: format!(
                        "counter `{lit}` incremented here has no test referencing \
                         its name; add a balance test"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{lint_scans, scan_file};
    use super::*;

    fn lint_one(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_scans(&[scan_file(path, src)]).diagnostics
    }

    #[test]
    fn float_eq_flagged_in_prod_not_in_tests() {
        let src = "fn f(x: f64) -> bool { x == 0.0 }\n\
                   #[cfg(test)]\n\
                   mod tests {\n    fn g(y: f64) -> bool { y == 0.0 }\n}\n";
        let d = lint_one("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
        assert!(lint_one("crates/core/tests/x.rs", src).is_empty());
    }

    #[test]
    fn literals_in_strings_and_comments_are_ignored() {
        let src = "fn f() { let s = \"x == 0.0\"; } // x == 0.0 here too\n";
        assert!(lint_one("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_eq_literal_adjacency() {
        for bad in [
            "fn f(x: f64) -> bool { x == 0.0 }\n",
            "fn f(x: f64) -> bool { 1.5 != x }\n",
            "fn f(x: f64) -> bool { x == 1e-9 }\n",
            "fn f(x: f64) -> bool { x.fract() == 0.0 }\n",
        ] {
            let d = lint_one("crates/core/src/x.rs", bad);
            assert_eq!(d.len(), 1, "expected one diagnostic for {bad:?}");
            assert_eq!(d[0].rule, "float-eq");
        }
        for good in [
            "fn f(x: u64) -> bool { x == 0 }\n",
            "fn f(x: usize) -> bool { x <= 10 }\n",
            "fn f(t: (u8, u8)) -> bool { t.0 == t.1 }\n",
            "fn f(x: f64) -> bool { approx_eq(x, 0.0) }\n",
            // Tuple access on an indexed value is not a float literal.
            "fn f(v: &[(u64, u8)]) -> bool { v[0].0 != 30 }\n",
        ] {
            assert!(
                lint_one("crates/core/src/x.rs", good).is_empty(),
                "false positive on {good:?}"
            );
        }
    }

    #[test]
    fn assert_unwind_safe_with_mut_capture() {
        let bad = "fn f(buf: &mut Vec<u8>) {\n    let r = catch_unwind(AssertUnwindSafe(|| {\n        step(&mut *buf);\n    }));\n}\n";
        let d = lint_one("crates/core/src/x.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unwind-safe-mut");
        let good =
            "fn f(buf: &Vec<u8>) {\n    let r = catch_unwind(AssertUnwindSafe(|| step(buf)));\n}\n";
        assert!(lint_one("crates/core/src/x.rs", good).is_empty());
    }

    #[test]
    fn counter_pairing_requires_test_reference() {
        let prod = "fn f() { cf_obs::counter!(\"online.degrade.user_mean\").inc(); }\n";
        let scan = scan_file("crates/core/src/online.rs", prod);
        let report = lint_scans(&[scan]);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].rule, "counter-pairing");

        let test_file =
            "#[test]\nfn t() { assert!(dump().contains(\"online.degrade.user_mean\")); }\n";
        let scans = [
            scan_file("crates/core/src/online.rs", prod),
            scan_file("crates/core/tests/balance.rs", test_file),
        ];
        let report = lint_scans(&scans);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }
}
