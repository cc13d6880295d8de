//! File classification and test-region detection.
//!
//! Rules are scoped two ways:
//!
//! * **by crate** — the determinism contract binds the library crates
//!   (`neo-math`, `neo-scene`, `neo-pipeline`, `neo-sort`, `neo-core`,
//!   `neo-serve`, `neo-metrics`) plus this linter itself; functions in
//!   the render-path subset are the roots the call-graph rules
//!   propagate from. Bench/sim/workload and umbrella code is checked
//!   only where the render path reaches it.
//! * **by region** — `#[cfg(test)]` modules, `#[test]` functions, and
//!   files under `tests/`/`benches/`/`examples/` contribute no call-graph
//!   nodes, so no rule fires there.

use crate::lexer::{Token, TokenKind};

/// Crate-level strictness derived from a file's workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateClass {
    /// Determinism-contract crate: r10 and r11 apply directly.
    Contract {
        /// True for crates on the render path (`math`, `scene`,
        /// `pipeline`, `sort`, `core`, `serve`), whose functions are the
        /// call-graph entry points. `metrics` and the linter are
        /// contract crates off the render path.
        render_path: bool,
    },
    /// Workspace code outside the contract (bench, sim, workloads,
    /// umbrella `src/`): checked only where the render path reaches it.
    Other,
}

/// Role of the file within its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// Library source: contributes call-graph nodes.
    Source,
    /// Test, bench, example, fixture, or `src/bin` code: excluded from
    /// the call graph.
    Test,
}

/// Where a file sits in the workspace, for rule scoping.
#[derive(Debug, Clone, Copy)]
pub struct FileScope {
    /// Crate-level strictness.
    pub class: CrateClass,
    /// Source vs test role.
    pub role: FileRole,
}

/// Contract crate directory names under `crates/`.
const CONTRACT_CRATES: [&str; 8] = [
    "math", "scene", "pipeline", "sort", "core", "serve", "metrics", "lint",
];
/// The subset of contract crates on the render path. `serve` is included
/// because its virtual-clock scheduler traces carry the same
/// byte-reproducibility contract as frame results — wall clocks, RNG
/// state, and unordered maps are just as banned there.
const RENDER_PATH_CRATES: [&str; 6] = ["math", "scene", "pipeline", "sort", "core", "serve"];

/// Classify a workspace-relative path (forward slashes).
#[must_use]
pub fn classify(rel_path: &str) -> FileScope {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let crate_dir = if parts.first() == Some(&"crates") {
        parts.get(1).copied()
    } else {
        None
    };
    let class = match crate_dir {
        Some(dir) if CONTRACT_CRATES.contains(&dir) => CrateClass::Contract {
            render_path: RENDER_PATH_CRATES.contains(&dir),
        },
        _ => CrateClass::Other,
    };
    let test_dir = parts
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples" | "fixtures" | "bin"));
    // `src/bin/*` figure binaries are application code, not library
    // code: the render path never calls into them.
    let role = if test_dir {
        FileRole::Test
    } else {
        FileRole::Source
    };
    FileScope { class, role }
}

/// Mark, per token index, whether the token sits inside test-only code:
/// an item annotated `#[test]`, `#[cfg(test)]`, or any other attribute
/// whose argument list mentions `test` (e.g. `#[cfg(all(test, unix))]`)
/// without negating it (`#[cfg(not(test))]` stays non-test).
///
/// The "item" covered by an attribute runs to the end of the first
/// brace block that follows it (or the first `;` if none opens), which
/// captures `mod tests { … }` and `fn case() { … }` alike.
#[must_use]
pub fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let mut k = 0usize;
    while k < sig.len() {
        let i = sig[k];
        if tokens[i].kind == TokenKind::Punct && tokens[i].text == "#" {
            // Outer attribute `#[…]` (inner `#![…]` has a `!` first).
            let mut a = k + 1;
            if a < sig.len() && tokens[sig[a]].text == "!" {
                k += 1;
                continue;
            }
            if a < sig.len() && tokens[sig[a]].text == "[" {
                let (attr_end, is_test) = scan_attribute(tokens, &sig, a);
                if is_test {
                    let item_end = item_extent(tokens, &sig, attr_end);
                    for &idx in &sig[k..item_end] {
                        in_test[idx] = true;
                    }
                    // Comments inside the region count too (for pragma
                    // bookkeeping they are irrelevant, but keep the map
                    // contiguous over raw indices).
                    if let (Some(&first), Some(&last)) =
                        (sig.get(k), sig.get(item_end.saturating_sub(1)))
                    {
                        for slot in in_test.iter_mut().take(last + 1).skip(first) {
                            *slot = true;
                        }
                    }
                    k = item_end;
                    continue;
                }
                a = attr_end;
                k = a;
                continue;
            }
        }
        k += 1;
    }
    in_test
}

/// Scan an attribute starting at `sig[open]` == `[`. Returns the sig
/// index just past the closing `]` and whether the attribute marks test
/// code.
fn scan_attribute(tokens: &[Token], sig: &[usize], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut mentions_test = false;
    let mut negated = false;
    let mut k = open;
    while k < sig.len() {
        let t = &tokens[sig[k]];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "[") => depth += 1,
            (TokenKind::Punct, "]") => {
                depth -= 1;
                if depth == 0 {
                    return (k + 1, mentions_test && !negated);
                }
            }
            (TokenKind::Ident, "test") => mentions_test = true,
            (TokenKind::Ident, "not") => negated = true,
            _ => {}
        }
        k += 1;
    }
    (k, false)
}

/// Extent of the item following an attribute: sig index just past the
/// matching `}` of the first brace block, or just past the first `;`
/// encountered before any `{`. Chained attributes are skipped over.
fn item_extent(tokens: &[Token], sig: &[usize], mut k: usize) -> usize {
    // Skip any further attributes on the same item.
    while k + 1 < sig.len() && tokens[sig[k]].text == "#" && tokens[sig[k + 1]].text == "[" {
        let (next, _) = scan_attribute(tokens, sig, k + 1);
        k = next;
    }
    let mut depth = 0usize;
    while k < sig.len() {
        let t = &tokens[sig[k]];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return k + 1;
                    }
                }
                ";" if depth == 0 => return k + 1,
                _ => {}
            }
        }
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn test_mask(src: &str) -> Vec<(String, bool)> {
        let toks = tokenize(src);
        let mask = test_regions(&toks);
        toks.iter()
            .zip(&mask)
            .filter(|(t, _)| t.kind == TokenKind::Ident)
            .map(|(t, &m)| (t.text.clone(), m))
            .collect()
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let m = test_mask(
            "fn lib() {}\n#[cfg(test)]\nmod tests { fn case() { inner(); } }\nfn after() {}",
        );
        assert!(m.iter().any(|(t, f)| t == "lib" && !f));
        assert!(m.iter().any(|(t, f)| t == "inner" && *f));
        assert!(m.iter().any(|(t, f)| t == "after" && !f));
    }

    #[test]
    fn test_fn_is_marked() {
        let m = test_mask("#[test]\nfn check() { body(); }\nfn real() {}");
        assert!(m.iter().any(|(t, f)| t == "body" && *f));
        assert!(m.iter().any(|(t, f)| t == "real" && !f));
    }

    #[test]
    fn cfg_not_test_stays_live() {
        let m = test_mask("#[cfg(not(test))]\nfn live() { body(); }");
        assert!(m.iter().any(|(t, f)| t == "body" && !f));
    }

    #[test]
    fn chained_attributes_are_covered() {
        let m = test_mask("#[test]\n#[ignore]\nfn slow() { body(); }");
        assert!(m.iter().any(|(t, f)| t == "body" && *f));
    }

    #[test]
    fn attribute_without_braces_ends_at_semi() {
        let m = test_mask("#[cfg(test)]\nuse std::vec::Vec;\nfn live() { body(); }");
        assert!(m.iter().any(|(t, f)| t == "body" && !f));
    }

    #[test]
    fn classify_paths() {
        assert!(matches!(
            classify("crates/scene/src/io.rs").class,
            CrateClass::Contract { render_path: true }
        ));
        assert!(matches!(
            classify("crates/metrics/src/lib.rs").class,
            CrateClass::Contract { render_path: false }
        ));
        assert!(matches!(
            classify("crates/serve/src/server.rs").class,
            CrateClass::Contract { render_path: true }
        ));
        assert_eq!(
            classify("crates/bench/src/bin/fig_raster.rs").role,
            FileRole::Test
        );
        assert_eq!(classify("tests/parity.rs").role, FileRole::Test);
        assert_eq!(classify("crates/sort/src/warm.rs").role, FileRole::Source);
        assert!(matches!(classify("src/lib.rs").class, CrateClass::Other));
    }

    #[test]
    fn cluster_index_modules_are_render_path_scope() {
        // The spatial index and LOD selection run on the render path:
        // the determinism contract (no HashMap iteration, no clocks, no
        // RNG, checked casts) applies to them in full.
        for path in [
            "crates/scene/src/cluster.rs",
            "crates/pipeline/src/lod.rs",
            "crates/pipeline/src/binning.rs",
        ] {
            let scope = classify(path);
            assert!(
                matches!(scope.class, CrateClass::Contract { render_path: true }),
                "{path} must classify as render-path contract scope"
            );
            assert_eq!(scope.role, FileRole::Source, "{path}");
        }
        // The LOD figure harness and parity suite are test scope.
        assert_eq!(
            classify("crates/bench/src/bin/fig_lod.rs").role,
            FileRole::Test
        );
        assert_eq!(classify("tests/lod_parity.rs").role, FileRole::Test);
    }
}
