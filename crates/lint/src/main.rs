//! `neo-lint` CLI: lint the workspace, print findings, exit nonzero on
//! any unsuppressed finding.
//!
//! ```text
//! cargo run -p neo-lint -- --workspace
//! cargo run -p neo-lint -- --crate neo-sort --crate neo-core
//! cargo run -p neo-lint -- --workspace --json results/lint_report.json
//! cargo run -p neo-lint -- --workspace --sarif results/lint_report.sarif
//! cargo run -p neo-lint -- --workspace --format sarif   # SARIF to stdout
//! cargo run -p neo-lint -- --list-rules
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use neo_lint::rules::RuleId;
use std::path::PathBuf;
use std::process::ExitCode;

/// Stdout rendering selected by `--format`.
#[derive(PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Args {
    root: PathBuf,
    crates: Vec<String>,
    json: Option<PathBuf>,
    sarif: Option<PathBuf>,
    format: Format,
    list_rules: bool,
    quiet: bool,
}

const USAGE: &str = "usage: neo-lint [--workspace] [--crate <name>]... [--json <path>] \
[--sarif <path>] [--format <text|json|sarif>] [--root <dir>] [--list-rules] [--quiet]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        crates: Vec::new(),
        json: None,
        sarif: None,
        format: Format::Text,
        list_rules: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            // --workspace is the default scope; accepted for clarity.
            "--workspace" => {}
            "--crate" => {
                let name = it.next().ok_or("--crate needs a crate name")?;
                args.crates.push(name);
            }
            "--json" => {
                let path = it.next().ok_or("--json needs a path")?;
                args.json = Some(PathBuf::from(path));
            }
            "--sarif" => {
                let path = it.next().ok_or("--sarif needs a path")?;
                args.sarif = Some(PathBuf::from(path));
            }
            "--format" => {
                args.format = match it.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    other => {
                        return Err(format!(
                            "--format needs one of text|json|sarif, got {other:?}"
                        ))
                    }
                };
            }
            "--root" => {
                let dir = it.next().ok_or("--root needs a directory")?;
                args.root = PathBuf::from(dir);
            }
            "--list-rules" => args.list_rules = true,
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Create the parent directory (if any) and write, mapping failures to
/// exit code 2.
fn write_out(path: &PathBuf, contents: &str) -> Result<(), ExitCode> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("neo-lint: cannot create {}: {e}", parent.display());
                return Err(ExitCode::from(2));
            }
        }
    }
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("neo-lint: cannot write {}: {e}", path.display());
        return Err(ExitCode::from(2));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for rule in RuleId::ALL {
            println!("{:<3} {:<24} {}", rule.id(), rule.slug(), rule.describe());
            println!("    scope: {}", rule.scope_note());
        }
        return ExitCode::SUCCESS;
    }

    let filter = if args.crates.is_empty() {
        None
    } else {
        Some(args.crates.as_slice())
    };
    let report = match neo_lint::lint_workspace(&args.root, filter) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("neo-lint: failed to scan {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.json {
        if let Err(code) = write_out(path, &report.to_json()) {
            return code;
        }
    }
    if let Some(path) = &args.sarif {
        if let Err(code) = write_out(path, &report.to_sarif()) {
            return code;
        }
    }

    match args.format {
        Format::Json => print!("{}", report.to_json()),
        Format::Sarif => print!("{}", report.to_sarif()),
        Format::Text => {}
    }
    if !args.quiet && args.format == Format::Text {
        for finding in &report.findings {
            println!("{}", finding.render());
        }
        let by_rule: Vec<String> = report
            .counts()
            .into_iter()
            .map(|(r, n)| format!("{}: {n}", r.id()))
            .collect();
        let breakdown = if by_rule.is_empty() {
            String::new()
        } else {
            format!(" ({})", by_rule.join(", "))
        };
        println!(
            "neo-lint: {} file(s) scanned, {} finding(s){breakdown}, {} suppressed",
            report.files_scanned,
            report.findings.len(),
            report.suppressed.len()
        );
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
