//! Lint driver: lex → scope → whole-program effect pass → pragma
//! matching.
//!
//! [`lint_sources`] is the real entry point: it builds the item model
//! and call graph over *all* the files at once and collects the
//! transitive findings r9–r11 from [`crate::effects`]. A finding is
//! anchored at the effect site's file/line, so the pragma machinery —
//! including unused-pragma accounting — applies per file.
//! [`lint_source`] is the single-file convenience wrapper (cross-file
//! chains obviously need [`lint_sources`]).

use crate::callgraph::CallGraph;
use crate::effects;
use crate::items::parse_items;
use crate::lexer::{tokenize, Token};
use crate::pragma::{self, Pragma, PragmaScope};
use crate::report::{FileReport, Finding};
use crate::rules::{RawFinding, RuleId};
use crate::scope::{classify, test_regions};

/// Lint one file's source text under its workspace-relative path (the
/// path drives crate/test scoping — see [`crate::scope::classify`]).
#[must_use]
pub fn lint_source(rel_path: &str, src: &str) -> FileReport {
    lint_sources(&[(rel_path, src)]).pop().unwrap_or_default()
}

/// Lint a set of files as one program. Returns one report per input,
/// in input order. The effect pass sees the whole set, so a
/// nondeterministic helper in one file is charged to the render path
/// that reaches it from another.
#[must_use]
pub fn lint_sources(files: &[(&str, &str)]) -> Vec<FileReport> {
    let tokens: Vec<Vec<Token>> = files.iter().map(|(_, src)| tokenize(src)).collect();
    let graph = CallGraph::build(
        files
            .iter()
            .zip(&tokens)
            .map(|((rel, _), toks)| {
                let items = parse_items(toks, &test_regions(toks));
                ((*rel).to_string(), classify(rel), items)
            })
            .collect(),
    );
    let sites: Vec<_> = graph
        .nodes
        .iter()
        .map(|n| effects::intrinsic_effects(&tokens[n.file], n.item.body).1)
        .collect();
    let mut raw: Vec<Vec<RawFinding>> = vec![Vec::new(); files.len()];
    for (file_idx, finding) in effects::transitive_findings(&graph, &sites) {
        raw[file_idx].push(finding);
    }

    files
        .iter()
        .zip(&tokens)
        .zip(raw)
        .map(|(((rel, src), toks), mut raw)| {
            raw.sort_by_key(|f| (f.line, f.col));
            finish_file(rel, src, toks, raw)
        })
        .collect()
}

/// Pragma-match one file's raw findings and assemble its report.
fn finish_file(rel_path: &str, src: &str, tokens: &[Token], raw: Vec<RawFinding>) -> FileReport {
    let (pragmas, bad) = pragma::collect(tokens);

    let lines: Vec<&str> = src.lines().collect();
    let snippet = |line: usize| -> String {
        let text = lines
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or("")
            .trim();
        let mut s: String = text.chars().take(160).collect();
        if text.chars().count() > 160 {
            s.push('…');
        }
        s
    };

    let mut used = vec![false; pragmas.len()];
    let mut report = FileReport::default();
    for f in raw {
        let matched = pragmas.iter().enumerate().find(|(_, p)| suppresses(p, &f));
        let finding = Finding {
            rule: f.rule,
            file: rel_path.to_string(),
            line: f.line,
            col: f.col,
            snippet: snippet(f.line),
            message: f.message,
        };
        if let Some((idx, _)) = matched {
            used[idx] = true;
            report.suppressed.push(finding);
        } else {
            report.findings.push(finding);
        }
    }

    for b in bad {
        report.findings.push(Finding {
            rule: RuleId::Pragma,
            file: rel_path.to_string(),
            line: b.line,
            col: b.col,
            snippet: snippet(b.line),
            message: b.message,
        });
    }
    for (p, &was_used) in pragmas.iter().zip(&used) {
        if !was_used {
            report.findings.push(Finding {
                rule: RuleId::Pragma,
                file: rel_path.to_string(),
                line: p.line,
                col: 1,
                snippet: snippet(p.line),
                message: format!(
                    "unused suppression: no `{}` finding matches this pragma; delete it so the \
                     allow-inventory stays honest",
                    p.rule.id()
                ),
            });
        }
    }

    report.findings.sort_by_key(|a| (a.line, a.col));
    report
}

fn suppresses(p: &Pragma, f: &RawFinding) -> bool {
    p.rule == f.rule
        && match p.scope {
            PragmaScope::File => true,
            PragmaScope::Line => p.target_line == f.line,
        }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/sort/src/x.rs";
    /// A contract-crate float reduction: one direct r10 finding.
    const FOLD: &str = "fn f(v: &[f32]) -> f32 { let s: f32 = v.iter().sum(); s }";

    #[test]
    fn pragma_suppresses_same_line() {
        let src = format!("{FOLD} // neo-lint: allow(r10, \"two-element sum, order-free\")\n");
        let rep = lint_source(LIB, &src);
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        assert_eq!(rep.suppressed.len(), 1);
    }

    #[test]
    fn pragma_above_suppresses_next_line() {
        let src = format!("// neo-lint: allow(r10, \"two-element sum, order-free\")\n{FOLD}\n");
        let rep = lint_source(LIB, &src);
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
    }

    #[test]
    fn wrong_rule_pragma_does_not_suppress_and_reports_unused() {
        let src = format!("{FOLD} // neo-lint: allow(r11, \"mismatched\")\n");
        let rep = lint_source(LIB, &src);
        // The r10 finding stays, and the r11 pragma is reported unused.
        assert!(rep.findings.iter().any(|f| f.rule == RuleId::R10));
        assert!(rep.findings.iter().any(|f| f.rule == RuleId::Pragma));
    }

    #[test]
    fn unused_pragma_is_a_finding() {
        let rep = lint_source(
            LIB,
            "// neo-lint: allow(r10, \"nothing here\")\nfn f() {}\n",
        );
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].rule, RuleId::Pragma);
    }

    #[test]
    fn file_scope_pragma_covers_every_line() {
        let src = format!(
            "// neo-lint: allow-file(r10, \"figure-only sums\")\n\n{FOLD}\n\n{}\n",
            FOLD.replace("fn f", "fn g")
        );
        let rep = lint_source(LIB, &src);
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        assert_eq!(rep.suppressed.len(), 2);
    }

    #[test]
    fn findings_carry_snippets_and_positions() {
        let rep = lint_source(
            LIB,
            "fn f(v: &[f32]) -> f32 {\n    let s: f32 = v.iter().sum();\n    s\n}\n",
        );
        assert_eq!(rep.findings.len(), 1);
        let f = &rep.findings[0];
        assert_eq!((f.line, f.rule), (2, RuleId::R10));
        assert_eq!(f.snippet, "let s: f32 = v.iter().sum();");
    }

    #[test]
    fn cross_file_nondeterminism_is_charged_at_the_helper() {
        // Render-path caller in core, clock helper in a hygiene crate:
        // exactly one r9 finding, anchored in the helper file, naming
        // the chain.
        let caller = (
            "crates/core/src/frame.rs",
            "pub fn render_frame() { neo_bench::timing::stamp(); }",
        );
        let helper = (
            "crates/bench/src/timing.rs",
            "pub fn stamp() -> u64 { let t = Instant::now(); observe(t) }",
        );
        let reports = lint_sources(&[caller, helper]);
        assert!(reports[0].findings.is_empty(), "{:?}", reports[0].findings);
        let r9: Vec<_> = reports[1]
            .findings
            .iter()
            .filter(|f| f.rule == RuleId::R9)
            .collect();
        assert_eq!(r9.len(), 1, "{:?}", reports[1].findings);
        assert!(r9[0].message.contains("neo_core::frame::render_frame"));
        assert!(r9[0].message.contains("neo_bench::timing::stamp"));
    }

    #[test]
    fn unreachable_hygiene_helper_is_not_flagged() {
        let caller = ("crates/core/src/frame.rs", "pub fn render_frame() {}");
        let helper = (
            "crates/bench/src/timing.rs",
            "pub fn stamp() -> u64 { let t = Instant::now(); observe(t) }",
        );
        let reports = lint_sources(&[caller, helper]);
        assert!(reports.iter().all(|r| r.findings.is_empty()));
    }

    #[test]
    fn transitive_finding_respects_line_pragma() {
        let caller = (
            "crates/core/src/frame.rs",
            "pub fn render_frame() { neo_bench::timing::stamp(); }",
        );
        let helper = (
            "crates/bench/src/timing.rs",
            "pub fn stamp() -> u64 {\n    // neo-lint: allow(r9, \"startup-only stamp, not in frame loop\")\n    let t = Instant::now(); observe(t)\n}",
        );
        let reports = lint_sources(&[caller, helper]);
        assert!(reports[1].findings.is_empty(), "{:?}", reports[1].findings);
        assert_eq!(reports[1].suppressed.len(), 1);
        assert_eq!(reports[1].suppressed[0].rule, RuleId::R9);
    }
}
