//! Fixture-driven integration tests: every rule has a violating, a
//! clean, and a suppressed fixture under `tests/fixtures/<rule>/` (r9,
//! being cross-module, adds a render-path caller).
//!
//! The fixture files are loaded as text (`include_str!`) and linted
//! under synthetic workspace paths, so the corpus never has to compile
//! and the walk layer (which skips `fixtures/` directories) never sees
//! the deliberate violations.

use neo_lint::{lint_source, lint_sources, RuleId};

/// Synthetic path that puts a fixture in a render-path contract crate.
const CONTRACT_PATH: &str = "crates/pipeline/src/fixture.rs";
/// Synthetic path for an off-render-path contract crate (r11 direct).
const METRICS_PATH: &str = "crates/metrics/src/fixture.rs";
/// Synthetic hygiene-crate path for the r9 cross-module helper.
const HELPER_PATH: &str = "crates/workloads/src/helper.rs";

/// (rule, lint path, violation, clean, suppressed) per fixture triple.
fn corpus() -> Vec<(
    RuleId,
    &'static str,
    &'static str,
    &'static str,
    &'static str,
)> {
    vec![
        // r9 is cross-module by nature and has its own lint_sources
        // tests below; r10/r11 have single-file direct clauses.
        (
            RuleId::R10,
            CONTRACT_PATH,
            include_str!("fixtures/r10/violation.rs"),
            include_str!("fixtures/r10/clean.rs"),
            include_str!("fixtures/r10/suppressed.rs"),
        ),
        (
            RuleId::R11,
            METRICS_PATH,
            include_str!("fixtures/r11/violation.rs"),
            include_str!("fixtures/r11/clean.rs"),
            include_str!("fixtures/r11/suppressed.rs"),
        ),
    ]
}

#[test]
fn violation_fixtures_trigger_exactly_their_rule() {
    for (rule, path, violation, _, _) in corpus() {
        let rep = lint_source(path, violation);
        assert!(
            rep.findings.iter().any(|f| f.rule == rule),
            "{rule:?}: violation fixture produced no {rule:?} finding: {:?}",
            rep.findings
        );
        assert!(
            rep.findings.iter().all(|f| f.rule == rule),
            "{rule:?}: violation fixture leaked findings of other rules: {:?}",
            rep.findings
        );
    }
}

#[test]
fn clean_fixtures_are_silent() {
    for (rule, path, _, clean, _) in corpus() {
        let rep = lint_source(path, clean);
        assert!(
            rep.findings.is_empty(),
            "{rule:?}: clean fixture is not clean: {:?}",
            rep.findings
        );
        assert!(
            rep.suppressed.is_empty(),
            "{rule:?}: clean fixture should need no pragmas: {:?}",
            rep.suppressed
        );
    }
}

#[test]
fn suppressed_fixtures_silence_without_leaking() {
    for (rule, path, _, _, suppressed) in corpus() {
        let rep = lint_source(path, suppressed);
        assert!(
            rep.findings.is_empty(),
            "{rule:?}: suppressed fixture still has live findings (misplaced or unused pragma): {:?}",
            rep.findings
        );
        assert!(
            rep.suppressed.iter().any(|f| f.rule == rule),
            "{rule:?}: suppressed fixture recorded no suppressed {rule:?} finding: {:?}",
            rep.suppressed
        );
    }
}

/// The acceptance-criteria fixture: a nondeterministic helper in a
/// hygiene-scoped file, called from a render-path file, produces
/// exactly one r9 finding whose message names the full call chain.
#[test]
fn cross_module_r9_fires_once_and_names_the_chain() {
    let reports = lint_sources(&[
        (CONTRACT_PATH, include_str!("fixtures/r9/caller.rs")),
        (HELPER_PATH, include_str!("fixtures/r9/violation.rs")),
    ]);
    assert!(
        reports[0].findings.is_empty(),
        "caller file must stay clean (the finding anchors at the effect): {:?}",
        reports[0].findings
    );
    assert_eq!(
        reports[1].findings.len(),
        1,
        "exactly one r9 finding expected: {:?}",
        reports[1].findings
    );
    let f = &reports[1].findings[0];
    assert_eq!(f.rule, RuleId::R9);
    assert_eq!(f.file, HELPER_PATH);
    assert!(
        f.message.contains("`neo_pipeline::fixture::submit_frame`")
            && f.message.contains("`neo_workloads::helper::run_stamp`"),
        "message must name the full call chain: {}",
        f.message
    );
}

#[test]
fn cross_module_r9_clean_helper_is_silent() {
    let reports = lint_sources(&[
        (CONTRACT_PATH, include_str!("fixtures/r9/caller.rs")),
        (HELPER_PATH, include_str!("fixtures/r9/clean.rs")),
    ]);
    for rep in &reports {
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        assert!(rep.suppressed.is_empty(), "{:?}", rep.suppressed);
    }
}

#[test]
fn cross_module_r9_pragma_suppresses_at_the_effect_site() {
    let reports = lint_sources(&[
        (CONTRACT_PATH, include_str!("fixtures/r9/caller.rs")),
        (HELPER_PATH, include_str!("fixtures/r9/suppressed.rs")),
    ]);
    assert!(reports[0].findings.is_empty(), "{:?}", reports[0].findings);
    assert!(
        reports[1].findings.is_empty(),
        "pragma must silence the transitive finding: {:?}",
        reports[1].findings
    );
    assert!(reports[1].suppressed.iter().any(|f| f.rule == RuleId::R9));
}

#[test]
fn r9_helper_without_render_path_caller_is_silent() {
    // The same nondeterministic helper, linted with no caller: hygiene
    // crates are allowed clocks unless the render path reaches them.
    let rep = lint_source(HELPER_PATH, include_str!("fixtures/r9/violation.rs"));
    assert!(rep.findings.is_empty(), "{:?}", rep.findings);
}

#[test]
fn violation_fixtures_are_rule_scoped_not_global() {
    // The same violating source in a non-contract crate stays silent
    // when no render-path code reaches it.
    for (rule, _, violation, _, _) in corpus() {
        let rep = lint_source("crates/sim/src/fixture.rs", violation);
        assert!(
            rep.findings.iter().all(|f| f.rule != rule),
            "{rule:?}: fired outside the contract crates: {:?}",
            rep.findings
        );
    }
}
