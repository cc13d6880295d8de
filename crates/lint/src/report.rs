//! Finding types and report rendering (human text, JSON, SARIF).
//!
//! The JSON writer — and the small JSON reader behind
//! [`validate_sarif`] — are hand-rolled: the linter is dependency-free
//! by design so it can never be blocked on the crates it polices.
//!
//! The SARIF 2.1.0 document ([`WorkspaceReport::to_sarif`]) carries one
//! run, `neo-lint/transitive`, declaring the call-graph rules r9–r11
//! and the pragma meta-rule. CI uploads it as an artifact and
//! shape-checks it with [`validate_sarif`].

use crate::rules::RuleId;
use std::fmt::Write as _;

/// One reportable lint finding, located and snippeted.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based column in chars.
    pub col: usize,
    /// The trimmed offending source line.
    pub snippet: String,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl Finding {
    /// `file:line:col [id slug] message` single-line rendering.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{} [{} {}] {}\n    | {}",
            self.file,
            self.line,
            self.col,
            self.rule.id(),
            self.rule.slug(),
            self.message,
            self.snippet
        )
    }
}

/// Lint outcome for one file.
#[derive(Debug, Clone, Default)]
pub struct FileReport {
    /// Active (unsuppressed) findings.
    pub findings: Vec<Finding>,
    /// Findings silenced by a pragma, kept for reporting/auditing.
    pub suppressed: Vec<Finding>,
}

/// Lint outcome for a whole tree.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceReport {
    /// Number of files lexed and checked.
    pub files_scanned: usize,
    /// Active (unsuppressed) findings across all files.
    pub findings: Vec<Finding>,
    /// Pragma-silenced findings across all files.
    pub suppressed: Vec<Finding>,
}

impl WorkspaceReport {
    /// True when no unsuppressed finding remains.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Per-rule count of active findings, in rule order.
    #[must_use]
    pub fn counts(&self) -> Vec<(RuleId, usize)> {
        let mut rules: Vec<RuleId> = self.findings.iter().map(|f| f.rule).collect();
        rules.sort();
        rules.dedup();
        rules
            .into_iter()
            .map(|r| (r, self.findings.iter().filter(|f| f.rule == r).count()))
            .collect()
    }

    /// Render the JSON report (`results/lint_report.json` schema v1).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"neo-lint-report/v1\",\n");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"suppressed\": {},", self.suppressed.len());
        let _ = writeln!(s, "  \"findings_total\": {},", self.findings.len());
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "    {{\"rule\": \"{}\", \"slug\": \"{}\", \"file\": \"{}\", \"line\": {}, \
                 \"col\": {}, \"message\": \"{}\", \"snippet\": \"{}\"}}",
                f.rule.id(),
                f.rule.slug(),
                escape(&f.file),
                f.line,
                f.col,
                escape(&f.message),
                escape(&f.snippet)
            );
        }
        s.push_str(if self.findings.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        s.push_str("}\n");
        s
    }

    /// Render the report as a SARIF 2.1.0 document with one run
    /// (`neo-lint/transitive`). Suppressed findings are included with an
    /// `inSource` suppression object, so the allow-inventory is visible
    /// to SARIF viewers too.
    #[must_use]
    pub fn to_sarif(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
        s.push_str("  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n");
        s.push_str("      \"automationDetails\": {\"id\": \"neo-lint/transitive\"},\n");
        s.push_str("      \"tool\": {\"driver\": {\"name\": \"neo-lint\", \"rules\": [");
        for (i, r) in RuleId::ALL.into_iter().chain([RuleId::Pragma]).enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"id\": \"{}\", \"name\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
                r.id(),
                r.slug(),
                escape(r.describe())
            );
        }
        s.push_str("]}},\n");
        s.push_str("      \"results\": [");
        let mut first = true;
        for (f, suppressed) in self
            .findings
            .iter()
            .map(|f| (f, false))
            .chain(self.suppressed.iter().map(|f| (f, true)))
        {
            s.push_str(if first { "\n" } else { ",\n" });
            first = false;
            let suppression = if suppressed {
                ", \"suppressions\": [{\"kind\": \"inSource\"}]"
            } else {
                ""
            };
            let _ = write!(
                s,
                "        {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \
                 \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
                 {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}, \"startColumn\": \
                 {}}}}}}}]{suppression}}}",
                f.rule.id(),
                escape(&f.message),
                escape(&f.file),
                f.line,
                f.col
            );
        }
        s.push_str(if first { "]\n" } else { "\n      ]\n" });
        s.push_str("    }\n  ]\n}\n");
        s
    }
}

/// Minimal JSON value for the shape checks in [`validate_sarif`].
#[derive(Debug, Clone, PartialEq)]
enum Json {
    /// `null`
    Null,
    /// `true`/`false`
    Bool(bool),
    /// Any number (stored as f64; line/col magnitudes are tiny).
    Num(f64),
    /// String with escapes resolved.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Recursive-descent JSON parser (strings, numbers, bools, null,
/// arrays, objects). Rejects trailing garbage. Depth-capped so token
/// soup cannot overflow the stack.
fn parse_json(src: &str) -> Result<Json, String> {
    let chars: Vec<char> = src.chars().collect();
    let mut pos = 0usize;
    let v = parse_value(&chars, &mut pos, 0)?;
    skip_ws(&chars, &mut pos);
    if pos != chars.len() {
        return Err(format!("trailing characters at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(c: &[char], pos: &mut usize) {
    while c.get(*pos).is_some_and(|ch| ch.is_ascii_whitespace()) {
        *pos += 1;
    }
}

fn expect(c: &[char], pos: &mut usize, ch: char) -> Result<(), String> {
    skip_ws(c, pos);
    if c.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{ch}` at offset {pos}", pos = *pos))
    }
}

fn parse_value(c: &[char], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > 64 {
        return Err("nesting too deep".to_string());
    }
    skip_ws(c, pos);
    match c.get(*pos) {
        Some('{') => {
            *pos += 1;
            let mut kv = Vec::new();
            skip_ws(c, pos);
            if c.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Json::Obj(kv));
            }
            loop {
                skip_ws(c, pos);
                let key = parse_string(c, pos)?;
                expect(c, pos, ':')?;
                let val = parse_value(c, pos, depth + 1)?;
                kv.push((key, val));
                skip_ws(c, pos);
                match c.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Json::Obj(kv));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(c, pos);
            if c.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(parse_value(c, pos, depth + 1)?);
                skip_ws(c, pos);
                match c.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Json::Arr(arr));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
                }
            }
        }
        Some('"') => Ok(Json::Str(parse_string(c, pos)?)),
        Some('t') if c[*pos..].starts_with(&['t', 'r', 'u', 'e']) => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some('f') if c[*pos..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some('n') if c[*pos..].starts_with(&['n', 'u', 'l', 'l']) => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(ch) if *ch == '-' || ch.is_ascii_digit() => {
            let start = *pos;
            if c.get(*pos) == Some(&'-') {
                *pos += 1;
            }
            while c
                .get(*pos)
                .is_some_and(|ch| ch.is_ascii_digit() || matches!(ch, '.' | 'e' | 'E' | '+' | '-'))
            {
                *pos += 1;
            }
            let text: String = c[start..*pos].iter().collect();
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number `{text}`"))
        }
        _ => Err(format!("unexpected character at offset {pos}", pos = *pos)),
    }
}

fn parse_string(c: &[char], pos: &mut usize) -> Result<String, String> {
    if c.get(*pos) != Some(&'"') {
        return Err(format!("expected string at offset {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&ch) = c.get(*pos) {
        *pos += 1;
        match ch {
            '"' => return Ok(out),
            '\\' => {
                let esc = c.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    '"' | '\\' | '/' => out.push(esc),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let hex: String = c.get(*pos..*pos + 4).unwrap_or(&[]).iter().collect();
                        if hex.len() != 4 {
                            return Err("truncated \\u escape".to_string());
                        }
                        *pos += 4;
                        let code = u32::from_str_radix(&hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape `\\{other}`")),
                }
            }
            _ => out.push(ch),
        }
    }
    Err("unterminated string".to_string())
}

/// Shape-check a SARIF document produced by
/// [`WorkspaceReport::to_sarif`]: valid JSON, version 2.1.0, exactly
/// one run (`neo-lint/transitive`) declaring its rules, and every result
/// referencing a declared rule. Returns the run's result count.
pub fn validate_sarif(doc: &str) -> Result<usize, String> {
    let v = parse_json(doc)?;
    if v.get("version").and_then(Json::as_str) != Some("2.1.0") {
        return Err("version is not \"2.1.0\"".to_string());
    }
    let runs = v
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("`runs` is not an array")?;
    let [run] = runs else {
        return Err(format!("expected 1 run, got {}", runs.len()));
    };
    let auto = run
        .get("automationDetails")
        .and_then(|a| a.get("id"))
        .and_then(Json::as_str);
    if auto != Some("neo-lint/transitive") {
        return Err(format!("run id {auto:?}, expected \"neo-lint/transitive\""));
    }
    let driver = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .ok_or("run missing tool.driver")?;
    if driver.get("name").and_then(Json::as_str) != Some("neo-lint") {
        return Err("driver name is not neo-lint".to_string());
    }
    let rules = driver
        .get("rules")
        .and_then(Json::as_arr)
        .ok_or("driver.rules is not an array")?;
    let rule_ids: Vec<&str> = rules
        .iter()
        .filter_map(|r| r.get("id").and_then(Json::as_str))
        .collect();
    if rule_ids.is_empty() {
        return Err("run declares no rules".to_string());
    }
    let results = run
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("run.results is not an array")?;
    for r in results {
        let rid = r
            .get("ruleId")
            .and_then(Json::as_str)
            .ok_or("result missing ruleId")?;
        if !rule_ids.contains(&rid) {
            return Err(format!("result rule `{rid}` not declared by its run"));
        }
        if r.get("locations").and_then(Json::as_arr).is_none() {
            return Err(format!("`{rid}` result has no locations array"));
        }
    }
    Ok(results.len())
}

/// Minimal JSON string escaping.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            rule: RuleId::R10,
            file: "crates/scene/src/io.rs".to_string(),
            line: 404,
            col: 17,
            snippet: "let total: f32 = weights.iter().sum();".to_string(),
            message: "`.sum()` over floats".to_string(),
        }
    }

    #[test]
    fn render_is_clickable() {
        let r = finding().render();
        assert!(r.starts_with("crates/scene/src/io.rs:404:17 [r10 float-fold-order]"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let mut rep = WorkspaceReport {
            files_scanned: 3,
            ..Default::default()
        };
        let mut f = finding();
        f.message = "quote \" backslash \\ newline \n done".to_string();
        rep.findings.push(f);
        let json = rep.to_json();
        assert!(json.contains("\\\" backslash \\\\ newline \\n done"));
        assert!(json.contains("\"findings_total\": 1"));
        assert!(json.contains("\"files_scanned\": 3"));
    }

    #[test]
    fn empty_report_is_valid_json_shape() {
        let json = WorkspaceReport::default().to_json();
        assert!(json.contains("\"findings\": []"));
    }

    #[test]
    fn sarif_carries_live_and_suppressed_findings_and_validates() {
        let mut rep = WorkspaceReport::default();
        rep.findings.push(finding());
        let mut t = finding();
        t.rule = RuleId::R9;
        t.message = "chain: `a` -> `b`".to_string();
        rep.suppressed.push(t);
        let sarif = rep.to_sarif();
        assert_eq!(validate_sarif(&sarif), Ok(2));
        assert!(sarif.contains("\"suppressions\": [{\"kind\": \"inSource\"}]"));
    }

    #[test]
    fn empty_sarif_still_validates() {
        assert_eq!(
            validate_sarif(&WorkspaceReport::default().to_sarif()),
            Ok(0)
        );
    }

    #[test]
    fn validate_sarif_rejects_malformed_documents() {
        assert!(validate_sarif("not json").is_err());
        assert!(
            validate_sarif("{\"version\": \"2.1.0\"}").is_err(),
            "missing runs"
        );
        assert!(
            validate_sarif("{\"version\": \"2.1.0\", \"runs\": []}").is_err(),
            "needs the transitive run"
        );
        // A result citing a rule its run never declared is a shape error.
        let bad = WorkspaceReport::default()
            .to_sarif()
            .replace("\"results\": []", "\"results\": [{\"ruleId\": \"r99\", \"message\": {\"text\": \"x\"}, \"locations\": []}]");
        assert!(validate_sarif(&bad).is_err());
    }

    #[test]
    fn json_parser_handles_escapes_and_rejects_garbage() {
        let v = parse_json("{\"a\": [1, true, null, \"x\\n\\u0041\"]}").unwrap();
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[3], Json::Str("x\nA".to_string()));
        assert!(parse_json("{\"a\": 1,}").is_err());
        assert!(parse_json("[1, 2] trailing").is_err());
    }
}
