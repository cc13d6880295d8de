//! The static half of the determinism contract is clippy's, configured
//! by the root `Cargo.toml` `[workspace.lints]` and `clippy.toml`, plus
//! the crate graph: what a render-path crate cannot name in its
//! manifest, it cannot call. `cargo test` does not run clippy, so these
//! tests pin the configuration and the graph instead.

use std::fs;
use std::path::Path;

/// The crates that opt into `[workspace.lints]`.
const CONTRACT_CRATES: [&str; 7] = [
    "core", "math", "metrics", "pipeline", "scene", "serve", "sort",
];

/// The contract crates a frame runs through. Their `[dependencies]` may
/// name only each other and [`SEEDED_SHIMS`], so no clock, entropy or
/// report-only code (`neo-sim`, `neo-metrics`, `neo-workloads`,
/// `neo-bench`) is reachable from a frame.
const RENDER_PATH_CRATES: [&str; 6] = ["core", "math", "pipeline", "scene", "serve", "sort"];

/// Vendored shims whose every value comes from an explicit seed or the
/// input bytes.
const SEEDED_SHIMS: [&str; 3] = ["bytes", "rand", "rand_chacha"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).expect(rel)
}

/// Every crate a manifest depends on outside dev and build dependencies:
/// the keys of its `[dependencies]` table (`name.workspace = true`
/// counts as `name`), `[dependencies.name]` tables, and the same under
/// any `[target.….dependencies]`.
fn dependency_names(manifest: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            let segments: Vec<&str> = header.trim_end_matches(']').split('.').collect();
            let at = segments.iter().position(|s| *s == "dependencies");
            in_deps = at == Some(segments.len() - 1);
            if let Some(name) = at.and_then(|i| segments.get(i + 1)) {
                names.push((*name).to_string());
            }
        } else if in_deps && !line.is_empty() && !line.starts_with('#') {
            let key = line.split(['=', '.']).next().unwrap_or(line);
            names.push(key.trim().to_string());
        }
    }
    names
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
    // Every contract crate opts in, and no other crate does.
    let mut opted_in = Vec::new();
    for entry in fs::read_dir(root().join("crates")).expect("crates/ is readable") {
        let dir = entry.expect("crates/ entry").file_name();
        let dir = dir.to_string_lossy();
        let Ok(manifest) = fs::read_to_string(root().join(format!("crates/{dir}/Cargo.toml")))
        else {
            continue;
        };
        if toml_table(&manifest, "lints").contains(&("workspace".into(), "true".into())) {
            opted_in.push(dir.into_owned());
        }
    }
    opted_in.sort();
    assert_eq!(
        opted_in, CONTRACT_CRATES,
        "the crates setting `[lints] workspace = true` must be exactly the contract crates"
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
fn render_path_crates_depend_only_on_each_other_and_seeded_shims() {
    let allowed: Vec<String> = RENDER_PATH_CRATES
        .iter()
        .map(|c| format!("neo-{c}"))
        .chain(SEEDED_SHIMS.iter().map(|s| (*s).to_string()))
        .collect();
    for krate in RENDER_PATH_CRATES {
        let manifest = read(&format!("crates/{krate}/Cargo.toml"));
        for dep in dependency_names(&manifest) {
            assert!(
                allowed.contains(&dep),
                "crates/{krate}/Cargo.toml depends on `{dep}`; a render-path crate may \
                 name only {allowed:?}"
            );
        }
    }
}
