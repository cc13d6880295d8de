//! Suppression pragmas.
//!
//! A finding is silenced by an inline pragma comment with a **mandatory
//! reason string**:
//!
//! ```text
//! let total: f32 = w.iter().sum(); // neo-lint: allow(r10, "three weights, summed once per run")
//! // neo-lint: allow(r9, "startup-only timestamp, never read inside the frame loop")
//! let started = Instant::now();
//! ```
//!
//! A trailing pragma covers its own line; a pragma on its own line
//! covers the next code line (consecutive pragma/comment-only lines
//! stack onto the first code line below). `allow-file(<rule>, "…")`
//! covers the whole file.
//!
//! Malformed pragmas (unknown rule, missing reason) and pragmas that
//! suppress nothing are themselves findings: a suppression that has
//! stopped matching anything is stale and must be deleted, so the
//! pragma inventory can never rot.

use crate::lexer::Token;
use crate::rules::RuleId;

/// Reach of one parsed pragma.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PragmaScope {
    /// Covers one code line (its own, or the next code line below).
    Line,
    /// Covers the entire file.
    File,
}

/// One successfully parsed `neo-lint: allow(...)`.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// The rule being suppressed.
    pub rule: RuleId,
    /// Line- or file-scoped reach.
    pub scope: PragmaScope,
    /// The mandatory justification string.
    pub reason: String,
    /// Line the pragma comment sits on.
    pub line: usize,
    /// Code line this pragma suppresses findings on (`Line` scope).
    pub target_line: usize,
}

/// A pragma-shaped comment that does not parse, with a human message.
#[derive(Debug, Clone)]
pub struct BadPragma {
    /// Line of the offending comment.
    pub line: usize,
    /// Column of the offending comment.
    pub col: usize,
    /// What is wrong with it.
    pub message: String,
}

/// Scan the token stream for pragma comments and resolve their target
/// lines. `code_lines` must contain every line holding at least one
/// non-comment token.
#[must_use]
pub fn collect(tokens: &[Token]) -> (Vec<Pragma>, Vec<BadPragma>) {
    let mut code_lines: Vec<usize> = tokens
        .iter()
        .filter(|t| !t.is_comment())
        .map(|t| t.line)
        .collect();
    code_lines.sort_unstable();
    code_lines.dedup();

    let mut pragmas = Vec::new();
    let mut bad = Vec::new();
    for tok in tokens
        .iter()
        .filter(|t| t.is_comment() && !t.is_doc_comment())
    {
        let Some(at) = tok.text.find("neo-lint:") else {
            continue;
        };
        let rest = &tok.text[at + "neo-lint:".len()..];
        let mut found_any = false;
        let mut cursor = rest;
        while let Some(open) = cursor.find("allow") {
            let clause = &cursor[open..];
            match parse_allow(clause) {
                Ok((rule, scope, reason, consumed)) => {
                    found_any = true;
                    let target_line = if code_lines.binary_search(&tok.line).is_ok() {
                        tok.line
                    } else {
                        // Pragma-only line: cover the first code line
                        // below (stacked pragmas resolve identically).
                        code_lines
                            .iter()
                            .copied()
                            .find(|&l| l > tok.line)
                            .unwrap_or(tok.line)
                    };
                    pragmas.push(Pragma {
                        rule,
                        scope,
                        reason,
                        line: tok.line,
                        target_line,
                    });
                    cursor = &clause[consumed..];
                }
                Err(msg) => {
                    bad.push(BadPragma {
                        line: tok.line,
                        col: tok.col,
                        message: msg,
                    });
                    found_any = true;
                    break;
                }
            }
        }
        if !found_any {
            bad.push(BadPragma {
                line: tok.line,
                col: tok.col,
                message: "`neo-lint:` comment without an `allow(<rule>, \"<reason>\")` clause"
                    .to_string(),
            });
        }
    }
    (pragmas, bad)
}

/// Parse one `allow(...)` / `allow-file(...)` clause at the start of
/// `s` (which begins with `allow`). Returns (rule, scope, reason,
/// bytes consumed).
fn parse_allow(s: &str) -> Result<(RuleId, PragmaScope, String, usize), String> {
    let (scope, head_len) = if s.starts_with("allow-file") {
        (PragmaScope::File, "allow-file".len())
    } else {
        (PragmaScope::Line, "allow".len())
    };
    let after = s[head_len..].trim_start();
    if !after.starts_with('(') {
        return Err("expected `(` after `allow`".to_string());
    }
    let body = &after[1..];
    let Some(comma) = body.find(',') else {
        return Err(
            "expected `allow(<rule>, \"<reason>\")` — reason string is mandatory".to_string(),
        );
    };
    let rule_name = body[..comma].trim();
    let Some(rule) = RuleId::parse(rule_name) else {
        return Err(match nearest_rule(rule_name) {
            Some(hint) => {
                format!("unknown rule `{rule_name}` in pragma — did you mean `{hint}`?")
            }
            None => format!("unknown rule `{rule_name}` in pragma"),
        });
    };
    let rest = body[comma + 1..].trim_start();
    if !rest.starts_with('"') {
        return Err("pragma reason must be a quoted string".to_string());
    }
    let Some(endq) = rest[1..].find('"') else {
        return Err("unterminated pragma reason string".to_string());
    };
    let reason = rest[1..1 + endq].trim().to_string();
    if reason.is_empty() {
        return Err("pragma reason must not be empty".to_string());
    }
    let after_reason = rest[1 + endq + 1..].trim_start();
    if !after_reason.starts_with(')') {
        return Err("expected `)` closing the pragma".to_string());
    }
    // Bytes consumed relative to the start of `s`, including the `)`.
    let consumed = s.len() - after_reason.len() + 1;
    Ok((rule, scope, reason, consumed.min(s.len())))
}

/// Closest valid rule name (id or slug) to a misspelling, by edit
/// distance — `r111` suggests `r11`, `float-fold-ordr` suggests
/// `float-fold-order`. None when nothing is close enough to be a plausible
/// typo (distance > 1/3 of the input length, minimum 2).
fn nearest_rule(name: &str) -> Option<&'static str> {
    let name = name.to_ascii_lowercase();
    let budget = (name.len() / 3).max(2);
    RuleId::ALL
        .into_iter()
        .flat_map(|r| [r.id(), r.slug()])
        .map(|cand| (edit_distance(&name, cand), cand))
        .filter(|&(d, _)| d <= budget)
        .min_by_key(|&(d, cand)| (d, cand.len()))
        .map(|(_, cand)| cand)
}

/// Levenshtein distance, two-row DP. Inputs are rule-name sized.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    #[test]
    fn trailing_pragma_targets_own_line() {
        let src = "let s: f32 = v.iter().sum(); // neo-lint: allow(r10, \"two terms\")\n";
        let (p, bad) = collect(&tokenize(src));
        assert!(bad.is_empty());
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].rule, RuleId::R10);
        assert_eq!(p[0].target_line, 1);
    }

    #[test]
    fn standalone_pragma_targets_next_code_line() {
        let src = "// neo-lint: allow(r9, \"startup-only stamp\")\n// more prose\nlet t = Instant::now();\n";
        let (p, _) = collect(&tokenize(src));
        assert_eq!(p[0].target_line, 3);
    }

    #[test]
    fn file_scope_and_two_clauses() {
        let src = "// neo-lint: allow-file(r11, \"report-only crate\") allow(r10, \"two terms\")\ncode();\n";
        let (p, bad) = collect(&tokenize(src));
        assert!(bad.is_empty(), "{bad:?}");
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].scope, PragmaScope::File);
        assert_eq!(p[1].scope, PragmaScope::Line);
    }

    #[test]
    fn missing_reason_is_reported() {
        let (p, bad) = collect(&tokenize("// neo-lint: allow(r10)\ncode();\n"));
        assert!(p.is_empty());
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn empty_reason_is_reported() {
        let (_, bad) = collect(&tokenize("// neo-lint: allow(r10, \"  \")\ncode();\n"));
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn unknown_rule_is_reported() {
        let (_, bad) = collect(&tokenize("// neo-lint: allow(r99, \"nope\")\n"));
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("unknown rule"));
    }

    #[test]
    fn unknown_rule_suggests_the_nearest_valid_name() {
        let (_, bad) = collect(&tokenize("// neo-lint: allow(r111, \"typo\")\n"));
        assert!(
            bad[0].message.contains("did you mean `r11`"),
            "{}",
            bad[0].message
        );
        let (_, bad) = collect(&tokenize("// neo-lint: allow(float-fold-ordr, \"typo\")\n"));
        assert!(
            bad[0].message.contains("did you mean `float-fold-order`"),
            "{}",
            bad[0].message
        );
        // Gibberish gets no suggestion.
        let (_, bad) = collect(&tokenize("// neo-lint: allow(zzqqy, \"?\")\n"));
        assert!(
            !bad[0].message.contains("did you mean"),
            "{}",
            bad[0].message
        );
    }

    #[test]
    fn rule_slugs_parse_too() {
        let (p, bad) = collect(&tokenize(
            "// neo-lint: allow(unordered-iteration, \"why\")\ncode();\n",
        ));
        assert!(bad.is_empty());
        assert_eq!(p[0].rule, RuleId::R11);
    }
}
