//! The shipped tree must be lint-clean: `neo-lint --workspace` finds
//! nothing, and every suppression it honors carries a reason.
//!
//! This is the same gate CI runs (`cargo run -p neo-lint -- --workspace`),
//! expressed as a test so `cargo test` alone catches a regression. The
//! per-line half of the contract is clippy's, which `cargo test` does
//! not run; the manifest test below pins its configuration instead.

use neo_lint::scope::{classify, CrateClass};
use std::fs;
use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = neo_lint::lint_workspace(root, None).expect("workspace sources must be readable");

    assert!(
        report.files_scanned > 50,
        "walk found only {} files; traversal is broken",
        report.files_scanned
    );
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(neo_lint::Finding::render)
        .collect();
    assert!(
        report.is_clean(),
        "the shipped tree has {} lint finding(s):\n{}",
        report.findings.len(),
        rendered.join("\n")
    );
}

#[test]
fn every_honored_suppression_names_its_rule_site() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = neo_lint::lint_workspace(root, None).expect("workspace sources must be readable");

    // The live tree carries no r9–r11 pragma today, so the inventory
    // may be empty; pragma matching itself is covered by the engine
    // unit tests and the r9–r11 `suppressed` fixtures.
    for s in &report.suppressed {
        assert!(
            !s.file.is_empty() && s.line > 0,
            "suppressed finding lost its location: {s:?}"
        );
    }
}

#[test]
fn all_eleven_rules_are_registered_and_scoped() {
    // The live-tree gate above only proves the rules that exist found
    // nothing; this pins that the call-graph rules r9–r11 exist in the
    // registry. The per-line rules are clippy/rustc lints, pinned by
    // `contract_crates_inherit_the_workspace_lints`.
    let ids: Vec<&str> = neo_lint::RuleId::ALL.iter().map(|r| r.id()).collect();
    assert_eq!(ids, ["r9", "r10", "r11"]);
    for r in neo_lint::RuleId::ALL {
        assert!(!r.scope_note().is_empty(), "{} has no scope note", r.id());
    }
}

#[test]
fn live_tree_sarif_is_valid_with_a_run_per_rule_set() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = neo_lint::lint_workspace(root, None).expect("workspace sources must be readable");
    let sarif = report.to_sarif();
    let results = neo_lint::report::validate_sarif(&sarif)
        .expect("workspace SARIF must pass the shape check");
    // A clean tree means zero *unsuppressed* findings; the SARIF still
    // carries the suppressed inventory, so every finding — live or
    // suppressed — appears exactly once in the one run.
    assert_eq!(
        results,
        report.findings.len() + report.suppressed.len(),
        "the run must account for every finding exactly once"
    );
}

/// `key = value` pairs of one `[header]` table of a TOML file, comments
/// and blank lines skipped. Enough TOML for the manifests checked here.
fn toml_table(text: &str, header: &str) -> Vec<(String, String)> {
    let want = format!("[{header}]");
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != want)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().trim_matches('"').to_string()))
        .collect()
}

#[test]
fn contract_crates_inherit_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| fs::read_to_string(root.join(rel)).expect(rel);

    // Every crate the linter classifies as a contract crate opts in.
    let mut contract = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let dir = entry.expect("crates/ entry").file_name();
        let dir = dir.to_string_lossy();
        if matches!(
            classify(&format!("crates/{dir}/src/lib.rs")).class,
            CrateClass::Contract { .. }
        ) {
            let manifest = read(&format!("crates/{dir}/Cargo.toml"));
            assert!(
                toml_table(&manifest, "lints").contains(&("workspace".into(), "true".into())),
                "crates/{dir}/Cargo.toml must set `[lints] workspace = true`"
            );
            contract.push(dir.into_owned());
        }
    }
    contract.sort();
    assert_eq!(
        contract,
        ["core", "lint", "math", "metrics", "pipeline", "scene", "serve", "sort"]
    );

    // The workspace table forbids unsafe code and enables the cast,
    // panic-path, float-order, disallowed-type and reason lints.
    let manifest = read("Cargo.toml");
    let rust = toml_table(&manifest, "workspace.lints.rust");
    assert!(
        rust.contains(&("unsafe_code".into(), "forbid".into())),
        "[workspace.lints.rust] must forbid unsafe_code: {rust:?}"
    );
    let clippy = toml_table(&manifest, "workspace.lints.clippy");
    for lint in [
        "cast_possible_truncation",
        "cast_sign_loss",
        "cast_possible_wrap",
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "missing_panics_doc",
        "float_cmp",
        "disallowed_types",
        "allow_attributes_without_reason",
    ] {
        let level = clippy
            .iter()
            .find(|(k, _)| k == lint)
            .map(|(_, v)| v.as_str());
        assert!(
            matches!(level, Some("warn" | "deny" | "forbid")),
            "clippy::{lint} must be enabled in [workspace.lints.clippy], found {level:?}"
        );
    }

    // clippy.toml names the nondeterminism sources and atomics.
    let config = read("clippy.toml");
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant",
        "std::time::SystemTime",
        "std::sync::atomic::AtomicU32",
        "std::sync::atomic::AtomicU64",
        "std::sync::atomic::AtomicUsize",
    ] {
        assert!(
            config.contains(&format!("path = \"{path}\"")),
            "clippy.toml disallowed-types must list {path}"
        );
    }
}

#[test]
fn crate_filter_restricts_the_walk() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let all = neo_lint::lint_workspace(root, None).expect("workspace walk");
    let sort_only =
        neo_lint::lint_workspace(root, Some(&["neo-sort".to_string()])).expect("filtered walk");
    assert!(sort_only.files_scanned > 0);
    assert!(sort_only.files_scanned < all.files_scanned);
}
