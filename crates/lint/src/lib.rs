//! `neo-lint` — the call-graph half of the determinism & robustness
//! contract.
//!
//! The workspace's determinism contract (ARCHITECTURE.md
//! §"Determinism contract") is enforced statically in two layers. The
//! per-line rules — lossy casts, panic paths, NaN-unsafe float
//! comparison, hash containers, clocks, atomics, `unsafe` — are rustc
//! and clippy lints, configured once in the workspace `Cargo.toml`
//! (`[workspace.lints]`) and `clippy.toml`, and opted into by each
//! contract crate with `[lints] workspace = true`. This crate is the
//! other layer: the hazards clippy cannot see because they only become
//! hazards through the workspace call graph.
//!
//! | rule | slug | catches |
//! |------|------|---------|
//! | `r9` | `transitive-nondeterminism` | clock/RNG helper reachable from the render path |
//! | `r10` | `float-fold-order` | `.sum()`/`.product()`/`.fold()` float reductions with implicit order |
//! | `r11` | `unordered-iteration` | `HashMap`/`HashSet` iteration feeding ordered output |
//!
//! A hand-rolled lexer (no `syn` — the build environment is offline and
//! the linter must stay dependency-free) feeds a two-phase
//! whole-workspace pass: [`items`] builds a brace-matched item model
//! (every `fn` with its body extent and call sites), [`callgraph`] links
//! the models into a workspace call graph, and [`effects`] computes
//! per-function effect sets and propagates them over the graph to a
//! fixpoint, so a hazard buried in a hygiene-scoped helper is charged
//! the moment render-path code can reach it. Transitive findings name
//! the full call chain and are anchored at the effect site, where a
//! normal pragma suppresses them.
//!
//! Findings are suppressed — one code line or one file at a time — by
//! an inline pragma carrying a mandatory reason:
//!
//! ```text
//! // neo-lint: allow(r10, "three weights, summed once per run: order cannot drift")
//! ```
//!
//! Malformed and *unused* pragmas are findings themselves, so the
//! suppression inventory cannot rot. See [`rules::RuleId::describe`]
//! for per-rule rationale, and the `neo-lint` binary for the CLI
//! (`cargo run -p neo-lint -- --workspace`).
//!
//! ```
//! let report = neo_lint::lint_source(
//!     "crates/pipeline/src/x.rs",
//!     "fn f(v: &[f32]) -> f32 { let s: f32 = v.iter().sum(); s }",
//! );
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].rule.id(), "r10");
//! ```

#![deny(missing_docs)]

pub mod callgraph;
pub mod effects;
pub mod engine;
pub mod items;
pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod scope;
pub mod walk;

pub use engine::{lint_source, lint_sources};
pub use report::{FileReport, Finding, WorkspaceReport};
pub use rules::RuleId;

use std::fs;
use std::io;
use std::path::Path;

/// Lint every lintable file under `root` (a workspace checkout),
/// optionally restricted to the named crates (`neo-sort` / `sort`).
///
/// Returns the aggregated report; findings are sorted by file, then
/// line/column, so output is deterministic.
pub fn lint_workspace(root: &Path, crates: Option<&[String]>) -> io::Result<WorkspaceReport> {
    let files = walk::workspace_files(root)?;
    let mut sources: Vec<(String, String)> = Vec::new();
    for rel in files {
        if let Some(filter) = crates {
            if !filter.iter().any(|c| walk::in_crate(&rel, c)) {
                continue;
            }
        }
        let src = fs::read_to_string(root.join(&rel))?;
        sources.push((rel, src));
    }
    let borrowed: Vec<(&str, &str)> = sources
        .iter()
        .map(|(r, s)| (r.as_str(), s.as_str()))
        .collect();
    let mut report = WorkspaceReport::default();
    for file_report in lint_sources(&borrowed) {
        report.files_scanned += 1;
        report.findings.extend(file_report.findings);
        report.suppressed.extend(file_report.suppressed);
    }
    Ok(report)
}
