//! `cfsf-analyze` — runs the repo lint engine and the loom-lite model
//! checks; the CI gate for both.
//!
//! ```text
//! cfsf-analyze [--deny-warnings] [--no-models] [--no-lint]
//!              [--list-rules] [--replay <model> <c0,c1,...>] [--root <dir>]
//!              [--json] [--json-out <path>] [--annotate]
//! ```
//!
//! `--json` replaces the human report on stdout with one machine-readable
//! JSON document; `--json-out <path>` writes the same document to a file
//! while keeping the human report; `--annotate` additionally emits GitHub
//! workflow commands (`::error file=…,line=…::…`) so CI surfaces lint
//! findings and model failures inline on the diff.
//!
//! Exit status: `0` when clean; `1` on any model failure or (with
//! `--deny-warnings`) any lint diagnostic. The seeded-race fixture models
//! (`expect_race`) invert: they gate on the race detector *firing*.

use std::path::PathBuf;
use std::process::ExitCode;

use cf_analysis::lint::{self, rules, LintReport};
use cf_analysis::models::{self, ModelRun};
use cf_obs::json::Writer;

struct Args {
    deny_warnings: bool,
    run_lint: bool,
    run_models: bool,
    list_rules: bool,
    replay: Option<(String, Vec<usize>)>,
    root: Option<PathBuf>,
    json: bool,
    json_out: Option<PathBuf>,
    annotate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny_warnings: false,
        run_lint: true,
        run_models: true,
        list_rules: false,
        replay: None,
        root: None,
        json: false,
        json_out: None,
        annotate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny-warnings" => args.deny_warnings = true,
            "--no-models" => args.run_models = false,
            "--no-lint" => args.run_lint = false,
            "--list-rules" => args.list_rules = true,
            "--json" => args.json = true,
            "--json-out" => {
                args.json_out = Some(PathBuf::from(it.next().ok_or("--json-out needs a path")?));
            }
            "--annotate" => args.annotate = true,
            "--replay" => {
                let model = it.next().ok_or("--replay needs <model> <schedule>")?;
                let sched = it.next().ok_or("--replay needs <model> <schedule>")?;
                let script = sched
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse::<usize>().map_err(|e| e.to_string()))
                    .collect::<Result<Vec<_>, _>>()?;
                args.replay = Some((model, script));
            }
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root needs a path")?));
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

/// Walks up from the cwd to the workspace root (the directory holding
/// both `Cargo.toml` and `crates/`).
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Did this model run satisfy its gate? Ordinary models must explore
/// clean; `expect_race` fixtures must fail *with a data-race report* —
/// a clean run means the detector regressed.
fn model_ok(run: &ModelRun) -> bool {
    match (&run.report.failure, run.expect_race) {
        (None, false) => true,
        (Some(f), true) => f.message.contains("data race"),
        _ => false,
    }
}

/// Renders the whole gate result as one JSON document.
fn render_json(lint: Option<&LintReport>, runs: &[ModelRun], ok: bool) -> String {
    let mut w = Writer::new();
    w.begin_object();
    w.key("lint");
    match lint {
        None => w.null(),
        Some(report) => {
            w.begin_object();
            w.key("files_scanned");
            w.number_u64(report.files_scanned as u64);
            w.key("diagnostics");
            w.begin_array();
            for d in &report.diagnostics {
                w.elem();
                w.begin_object();
                w.key("rule");
                w.string(d.rule);
                w.key("path");
                w.string(&d.path);
                w.key("line");
                w.number_u64(d.line as u64);
                w.key("message");
                w.string(&d.message);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
    }
    w.key("models");
    w.begin_array();
    for run in runs {
        w.elem();
        w.begin_object();
        w.key("name");
        w.string(run.name);
        w.key("expect_race");
        w.bool(run.expect_race);
        w.key("ok");
        w.bool(model_ok(run));
        w.key("executions");
        w.number_u64(run.report.executions);
        w.key("pruned");
        w.number_u64(run.report.pruned);
        w.key("sleep_pruned");
        w.number_u64(run.report.sleep_pruned);
        w.key("complete");
        w.bool(run.report.complete);
        w.key("failure");
        match &run.report.failure {
            None => w.null(),
            Some(f) => {
                w.begin_object();
                w.key("message");
                w.string(&f.message);
                w.key("script");
                w.begin_array();
                for c in &f.script {
                    w.elem();
                    w.number_u64(*c as u64);
                }
                w.end_array();
                w.key("kinds");
                w.string(&f.kinds);
                w.end_object();
            }
        }
        w.end_object();
    }
    w.end_array();
    w.key("ok");
    w.bool(ok);
    w.end_object();
    w.finish()
}

/// Emits a GitHub workflow command pinned to a file and line.
fn annotate(level: &str, path: &str, line: usize, message: &str) {
    // Workflow commands terminate at the newline; escape the message's.
    let msg = message.replace('%', "%25").replace('\n', "%0A");
    println!("::{level} file={path},line={line}::{msg}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cfsf-analyze: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.list_rules {
        for r in rules::RULES {
            println!("{:<18} {}", r.id, r.summary);
        }
        return ExitCode::SUCCESS;
    }

    if let Some((model, script)) = &args.replay {
        println!("replaying {model} under schedule {script:?}");
        return match models::replay_builtin(model, script.clone()) {
            None => {
                eprintln!(
                    "cfsf-analyze: unknown model '{model}' (known: {})",
                    models::BUILTIN_MODELS.join(", ")
                );
                ExitCode::FAILURE
            }
            Some(report) => match report.failure {
                Some(f) => {
                    println!("reproduced: {}", f.message);
                    println!("{}", f.replay_instructions(model));
                    ExitCode::FAILURE
                }
                None => {
                    println!("schedule ran clean ({} execution(s))", report.executions);
                    ExitCode::SUCCESS
                }
            },
        };
    }

    let human = !args.json;
    let mut failed = false;
    let mut lint_report: Option<LintReport> = None;

    if args.run_lint {
        let root = args.root.clone().or_else(find_root);
        let Some(root) = root else {
            eprintln!("cfsf-analyze: cannot locate workspace root (use --root)");
            return ExitCode::FAILURE;
        };
        let report = lint::run_lint(&root);
        if human {
            println!(
                "lint: scanned {} files — {} diagnostic(s)",
                report.files_scanned,
                report.diagnostics.len()
            );
            for d in &report.diagnostics {
                println!("warning: {d}");
            }
        }
        if args.annotate {
            for d in &report.diagnostics {
                let level = if args.deny_warnings {
                    "error"
                } else {
                    "warning"
                };
                annotate(
                    level,
                    &d.path,
                    d.line,
                    &format!("[{}] {}", d.rule, d.message),
                );
            }
        }
        if args.deny_warnings && !report.diagnostics.is_empty() {
            failed = true;
        }
        lint_report = Some(report);
    }

    let mut runs: Vec<ModelRun> = Vec::new();
    if args.run_models {
        runs = models::run_builtin_models();
        for run in &runs {
            let ok = model_ok(run);
            if !ok {
                failed = true;
            }
            if human {
                let counts = format!(
                    "{} execution(s){}{}{}",
                    run.report.executions,
                    if run.report.pruned > 0 {
                        format!(", {} pruned", run.report.pruned)
                    } else {
                        String::new()
                    },
                    if run.report.sleep_pruned > 0 {
                        format!(", {} sleep-pruned", run.report.sleep_pruned)
                    } else {
                        String::new()
                    },
                    if run.report.complete {
                        " (exhaustive)"
                    } else {
                        ""
                    }
                );
                match (&run.report.failure, run.expect_race, ok) {
                    (None, false, _) => println!("model {}: ok — {counts}", run.name),
                    (Some(f), true, true) => println!(
                        "model {}: ok — detector fired as required: {} ({counts})",
                        run.name, f.message
                    ),
                    (None, true, _) => println!(
                        "model {}: FAILED — seeded race went UNDETECTED ({counts}); \
                         the happens-before detector has regressed",
                        run.name
                    ),
                    (Some(f), _, _) => {
                        println!("model {}: FAILED — {}", run.name, f.message);
                        println!("{}", f.replay_instructions(run.name));
                    }
                }
            }
            if args.annotate && !ok {
                let msg = match &run.report.failure {
                    Some(f) => f.replay_instructions(run.name),
                    None => format!(
                        "model '{}' explored clean but is a seeded-race fixture: \
                         the data-race detector did not fire",
                        run.name
                    ),
                };
                annotate("error", "crates/analysis/src/models.rs", 1, &msg);
            }
        }
    }

    let json = if args.json || args.json_out.is_some() {
        Some(render_json(lint_report.as_ref(), &runs, !failed))
    } else {
        None
    };
    if let Some(doc) = &json {
        if args.json {
            print!("{doc}");
        }
        if let Some(path) = &args.json_out {
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("cfsf-analyze: cannot write {}: {e}", path.display());
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
