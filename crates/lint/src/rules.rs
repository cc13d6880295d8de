//! The rule registry: the three call-graph rules produced by the
//! whole-program pass in [`crate::effects`], plus the pragma meta-rule.
//!
//! The per-line contract rules (casts, panic paths, float comparison,
//! hash containers, clocks, atomics, `unsafe`) are rustc and clippy
//! lints configured in the workspace `Cargo.toml` and `clippy.toml`;
//! what stays here is what clippy cannot see: hazards that only become
//! hazards through the workspace call graph.
//!
//! The escape hatch is an explicit, *reasoned* pragma
//! (`// neo-lint: allow(<rule>, "<reason>")`) rather than rule
//! cleverness. See each rule's docs for scope and rationale.

/// Stable identifier of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Transitive nondeterminism: a render-path function reaches, over
    /// the call graph, a clock or unseeded-RNG source hidden in a
    /// helper outside render-path scope.
    R9,
    /// Float reduction-order hazard (implicit `.sum()`/`.product()`/
    /// `.fold()` or iterator-loop `+=` over floats) in contract code or
    /// reachable from the render path.
    R10,
    /// Unordered-container iteration whose results can feed ordered
    /// output: off-render-path contract code, or any helper reachable
    /// from the render path.
    R11,
    /// Meta-rule for pragma hygiene: malformed, unknown-rule, or unused
    /// suppressions. Not itself suppressible.
    Pragma,
}

impl RuleId {
    /// Every real rule, in order (excludes the pragma meta-rule).
    pub const ALL: [RuleId; 3] = [RuleId::R9, RuleId::R10, RuleId::R11];

    /// Short id (`r9` … `r11`, `pragma`).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            RuleId::R9 => "r9",
            RuleId::R10 => "r10",
            RuleId::R11 => "r11",
            RuleId::Pragma => "pragma",
        }
    }

    /// Human-readable slug, also accepted in pragmas.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            RuleId::R9 => "transitive-nondeterminism",
            RuleId::R10 => "float-fold-order",
            RuleId::R11 => "unordered-iteration",
            RuleId::Pragma => "pragma",
        }
    }

    /// One-line description for `--list-rules` and reports.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::R9 => {
                "transitive nondeterminism: a render-path function calls, possibly through \
                 several hops, a helper using clocks or unseeded RNG; the finding names the \
                 full call chain (whole-program companion to clippy's `disallowed_types`)"
            }
            RuleId::R10 => {
                "float reduction-order hazard: implicit `.sum()`/`.product()`/`.fold()` over \
                 floats, or a float `+=` fold inside an iterator-chain loop; reduction order \
                 must be explicit (indexed loop) or justified order-independent"
            }
            RuleId::R11 => {
                "unordered-container iteration (HashMap/HashSet iter/keys/values/drain or a \
                 `for` over the map) whose results can feed ordered output; iterate a sorted \
                 view instead"
            }
            RuleId::Pragma => "malformed, unknown, or unused `neo-lint:` suppression pragma",
        }
    }

    /// Where the rule applies, for `--list-rules`. Mirrors the
    /// crate-class table in ARCHITECTURE.md.
    #[must_use]
    pub fn scope_note(self) -> &'static str {
        match self {
            RuleId::R9 => "any library helper reachable from render-path code",
            RuleId::R10 => {
                "contract-crate library code, plus anything reachable from the render path"
            }
            RuleId::R11 => {
                "off-render-path contract code, plus helpers reachable from the render path"
            }
            RuleId::Pragma => "every scanned file, tests and benches included",
        }
    }

    /// Parse a rule name as written in a pragma: `r9` … `r11` or a slug.
    #[must_use]
    pub fn parse(s: &str) -> Option<RuleId> {
        let s = s.trim().to_ascii_lowercase();
        RuleId::ALL
            .into_iter()
            .find(|r| r.id() == s || r.slug() == s)
    }
}

/// A rule hit before pragma matching and snippet attachment.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// The rule that fired.
    pub rule: RuleId,
    /// 1-based source line.
    pub line: usize,
    /// 1-based column in chars.
    pub col: usize,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_id_round_trips() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.id()), Some(r));
            assert_eq!(RuleId::parse(r.slug()), Some(r));
        }
        assert_eq!(RuleId::parse("r1"), None);
        assert_eq!(RuleId::parse("r99"), None);
    }
}
