//! Phase 2 of the whole-workspace analysis: per-function **effect
//! sets** and their propagation over the call graph.
//!
//! An effect is a determinism- or robustness-relevant behavior a
//! function's *body* exhibits. The lattice is a bitmask — the join is
//! bitwise-or, bottom is `0`, and propagation
//! (`effects(f) ⊇ effects(g)` for every call `f → g`) is a monotone
//! fixpoint over the finite lattice, so the worklist in [`propagate`]
//! always terminates.
//!
//! | bit | effect | source pattern |
//! |-----|--------|----------------|
//! | [`NONDET`] | nondeterminism source | `Instant`, `SystemTime`, `thread_rng`, `from_entropy` |
//! | [`FLOAT_FOLD`] | reduction-order hazard | `.sum()`/`.product()`/`.fold()` with float evidence, float `+=` in an iterator-chain loop |
//! | [`UNORDERED_ITER`] | unordered iteration | `iter`/`keys`/`values`/`drain`/… on a `HashMap`/`HashSet` binding, or a `for` over one |
//!
//! `NONDET` feeds rule r9, `FLOAT_FOLD` r10, `UNORDERED_ITER` r11
//! (see [`transitive_findings`]). Panic sites and NaN-unsafe ordering
//! are body-local and left to clippy.

use crate::callgraph::CallGraph;
use crate::lexer::{Token, TokenKind};
use crate::rules::{RawFinding, RuleId};
use crate::scope::CrateClass;

/// Nondeterminism source (clock or unseeded RNG) — feeds r9.
pub const NONDET: u8 = 1 << 0;
/// Float reduction-order hazard — feeds r10.
pub const FLOAT_FOLD: u8 = 1 << 1;
/// Unordered-container iteration — feeds r11.
pub const UNORDERED_ITER: u8 = 1 << 2;

/// Idents that carry [`NONDET`] (unordered containers are
/// [`UNORDERED_ITER`]'s domain).
const NONDET_IDENTS: [&str; 4] = ["Instant", "SystemTime", "thread_rng", "from_entropy"];

/// Implicit-reduction method names checked for float evidence.
const FOLD_METHODS: [&str; 3] = ["sum", "product", "fold"];

/// Iteration methods that observe a container's internal order.
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// One located effect occurrence inside a function body.
#[derive(Debug, Clone)]
pub struct EffectSite {
    /// Exactly one of the effect bits.
    pub effect: u8,
    /// 1-based line of the triggering token.
    pub line: usize,
    /// 1-based column of the triggering token.
    pub col: usize,
    /// Short description of what triggered (`"thread_rng"`,
    /// `"`.sum()` over floats"`).
    pub what: String,
}

/// Compute the intrinsic (body-local) effect mask and sites of one
/// function body, given the raw-token range of its braces.
#[must_use]
pub fn intrinsic_effects(tokens: &[Token], body: (usize, usize)) -> (u8, Vec<EffectSite>) {
    let sig: Vec<usize> = (body.0..=body.1.min(tokens.len().saturating_sub(1)))
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let mut sites = Vec::new();
    let map_vars = map_bindings(tokens, &sig);
    let loops = for_loops(tokens, &sig);

    for k in 0..sig.len() {
        let t = &tokens[sig[k]];
        let prev = k.checked_sub(1).map(|p| &tokens[sig[p]]);
        match t.kind {
            TokenKind::Ident if NONDET_IDENTS.contains(&t.text.as_str()) => {
                sites.push(site(NONDET, t, t.text.clone()));
            }
            TokenKind::Ident
                if FOLD_METHODS.contains(&t.text.as_str())
                    && prev.is_some_and(|p| p.text == ".")
                    && is_call(tokens, &sig, k + 1) =>
            {
                let (lo, hi) = statement_window(tokens, &sig, k);
                if float_evidence(tokens, &sig[lo..=hi]) {
                    sites.push(site(FLOAT_FOLD, t, format!("`.{}()` over floats", t.text)));
                }
            }
            TokenKind::Punct if t.text == "+=" => {
                // A float accumulation inside a `for` whose header is an
                // iterator chain: the chain, not the loop, owns the order.
                let in_chain_loop = loops
                    .iter()
                    .any(|l| l.body.contains(&k) && l.header_has_method_call);
                if in_chain_loop {
                    let (lo, hi) = statement_window(tokens, &sig, k);
                    if float_evidence(tokens, &sig[lo..=hi]) {
                        sites.push(site(
                            FLOAT_FOLD,
                            t,
                            "float `+=` fold inside an iterator-chain loop".to_string(),
                        ));
                    }
                }
            }
            TokenKind::Ident
                if ITER_METHODS.contains(&t.text.as_str())
                    && prev.is_some_and(|p| p.text == ".")
                    && is_call(tokens, &sig, k + 1) =>
            {
                // `.iter()` et al. where the receiver is a known
                // HashMap/HashSet binding.
                let recv = k
                    .checked_sub(2)
                    .map(|r| &tokens[sig[r]])
                    .filter(|r| r.kind == TokenKind::Ident);
                if let Some(recv) = recv {
                    if map_vars.contains(&recv.text) {
                        sites.push(site(
                            UNORDERED_ITER,
                            t,
                            format!("`{}.{}()` on an unordered container", recv.text, t.text),
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    // `for pat in <expr containing a map binding> { … }` headers.
    for l in &loops {
        for k in l.header.clone() {
            let t = &tokens[sig[k]];
            if t.kind == TokenKind::Ident && map_vars.contains(&t.text) {
                // Direct method calls on the var are already reported
                // above; a bare `for k in &m` / `for k in m` is not.
                let followed_by_dot = tokens.get(sig[k] + 1).is_some_and(|n| n.text == ".");
                if !followed_by_dot {
                    sites.push(site(
                        UNORDERED_ITER,
                        t,
                        format!("`for … in {}` over an unordered container", t.text),
                    ));
                }
            }
        }
    }
    sites.sort_by_key(|s| (s.line, s.col));
    let mask = sites.iter().fold(0u8, |m, s| m | s.effect);
    (mask, sites)
}

fn site(effect: u8, t: &Token, what: String) -> EffectSite {
    EffectSite {
        effect,
        line: t.line,
        col: t.col,
        what,
    }
}

/// Is `sig[k]` the `(` of a call, directly or via `::<…>(`?
fn is_call(tokens: &[Token], sig: &[usize], k: usize) -> bool {
    let text = |k: usize| sig.get(k).map(|&i| tokens[i].text.as_str());
    match text(k) {
        Some("(") => true,
        Some("::") if text(k + 1) == Some("<") => {
            let mut angle = 0i32;
            let mut m = k + 1;
            while let Some(t) = text(m) {
                match t {
                    "<" => angle += 1,
                    ">" => {
                        angle -= 1;
                        if angle == 0 {
                            return text(m + 1) == Some("(");
                        }
                    }
                    ";" | "{" | "}" => return false,
                    _ => {}
                }
                m += 1;
            }
            false
        }
        _ => false,
    }
}

/// Balanced statement window around `sig[k]`: scan outward until a `;`
/// at relative depth 0 or the brace that encloses the statement, capped
/// at 200 significant tokens each way. The window is where float
/// *evidence* (an `f32`/`f64` ident or a float literal — turbofish,
/// binding annotation, literal argument) is searched for.
fn statement_window(tokens: &[Token], sig: &[usize], k: usize) -> (usize, usize) {
    let mut lo = k;
    let mut depth = 0i32;
    for _ in 0..200 {
        let Some(p) = lo.checked_sub(1) else { break };
        let t = tokens[sig[p]].text.as_str();
        match t {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" => depth -= 1,
            "{" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ";" if depth == 0 => break,
            _ => {}
        }
        if depth < 0 {
            break;
        }
        lo = p;
    }
    let mut hi = k;
    depth = 0;
    for _ in 0..200 {
        let Some(&i) = sig.get(hi + 1) else { break };
        let t = tokens[i].text.as_str();
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ";" if depth == 0 => {
                hi += 1;
                break;
            }
            _ => {}
        }
        if depth < 0 {
            break;
        }
        hi += 1;
    }
    (lo, hi)
}

fn float_evidence(tokens: &[Token], window: &[usize]) -> bool {
    window.iter().any(|&i| {
        let t = &tokens[i];
        t.kind == TokenKind::FloatLit
            || (t.kind == TokenKind::Ident && (t.text == "f32" || t.text == "f64"))
    })
}

/// `HashMap`/`HashSet` bindings in a body: `let m: HashMap<…> = …`,
/// `m: &HashMap<…>` parameters (the body range excludes the signature,
/// so these come from closures), and `let m = HashMap::new()`.
fn map_bindings(tokens: &[Token], sig: &[usize]) -> Vec<String> {
    let mut vars = Vec::new();
    for k in 0..sig.len() {
        let t = &tokens[sig[k]];
        if t.kind != TokenKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Walk back within the statement for `ident :` (typed binding)
        // or `let ident =` (inferred from `HashMap::new()`).
        let mut p = k;
        let mut depth = 0i32;
        while let Some(q) = p.checked_sub(1) {
            let u = tokens[sig[q]].text.as_str();
            match u {
                ";" | "{" | "}" if depth == 0 => break,
                ")" | "]" | ">" => depth += 1,
                "(" | "[" | "<" => depth = (depth - 1).max(0),
                ":" if depth == 0 => {
                    if let Some(r) = q.checked_sub(1) {
                        let cand = &tokens[sig[r]];
                        if cand.kind == TokenKind::Ident {
                            vars.push(cand.text.clone());
                        }
                    }
                    break;
                }
                "=" if depth == 0 => {
                    if let Some(r) = q.checked_sub(1) {
                        let cand = &tokens[sig[r]];
                        if cand.kind == TokenKind::Ident && cand.text != "let" {
                            vars.push(cand.text.clone());
                        }
                    }
                    break;
                }
                _ => {}
            }
            if k - q > 40 {
                break;
            }
            p = q;
        }
    }
    vars.sort();
    vars.dedup();
    vars
}

/// A `for` loop inside a body: header extent (between `for` and `{`)
/// and body extent, as indices into the body's sig slice.
struct ForLoop {
    header: std::ops::Range<usize>,
    body: std::ops::Range<usize>,
    header_has_method_call: bool,
}

fn for_loops(tokens: &[Token], sig: &[usize]) -> Vec<ForLoop> {
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < sig.len() {
        let t = &tokens[sig[k]];
        if t.kind == TokenKind::Ident && t.text == "for" {
            // First `{` at paren depth 0 opens the loop body.
            let mut depth = 0i32;
            let mut open = None;
            let mut m = k + 1;
            while m < sig.len() {
                match tokens[sig[m]].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth <= 0 => {
                        open = Some(m);
                        break;
                    }
                    ";" if depth <= 0 => break, // `impl X for Y` never has `;` mid-header; bail on soup
                    _ => {}
                }
                m += 1;
            }
            if let Some(open) = open {
                let mut brace = 0i32;
                let mut close = sig.len();
                let mut e = open;
                while e < sig.len() {
                    match tokens[sig[e]].text.as_str() {
                        "{" => brace += 1,
                        "}" => {
                            brace -= 1;
                            if brace == 0 {
                                close = e;
                                break;
                            }
                        }
                        _ => {}
                    }
                    e += 1;
                }
                let header = k + 1..open;
                // `for i in 0..v.len()` is the sanctioned indexed form:
                // a top-level range trumps any method call in the
                // header. Only range-free headers with a method call
                // (`v.iter().skip(1)`) count as iterator-chain loops.
                let mut pdepth = 0i32;
                let mut has_range = false;
                let mut has_call = false;
                for h in header.clone() {
                    let txt = tokens[sig[h]].text.as_str();
                    match txt {
                        "(" | "[" => pdepth += 1,
                        ")" | "]" => pdepth -= 1,
                        ".." | "..=" if pdepth == 0 => has_range = true,
                        "." if sig
                            .get(h + 1)
                            .is_some_and(|&n| tokens[n].kind == TokenKind::Ident)
                            && sig.get(h + 2).is_some_and(|&n| tokens[n].text == "(") =>
                        {
                            has_call = true;
                        }
                        _ => {}
                    }
                }
                let header_has_method_call = has_call && !has_range;
                out.push(ForLoop {
                    header,
                    body: open..close + 1,
                    header_has_method_call,
                });
                k = open + 1; // descend into the body for nested loops
                continue;
            }
        }
        k += 1;
    }
    out
}

/// Propagate effect masks over the call graph to a fixpoint:
/// `out[f] = direct[f] | ⋃ out[g] for f → g`. Worklist over reverse
/// edges; terminates because masks only grow within a finite lattice.
#[must_use]
pub fn propagate(direct: &[u8], callees: &[Vec<usize>]) -> Vec<u8> {
    let n = direct.len();
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (f, cs) in callees.iter().enumerate() {
        for &g in cs {
            if g < n {
                callers[g].push(f);
            }
        }
    }
    let mut out = direct.to_vec();
    let mut work: Vec<usize> = (0..n).collect();
    while let Some(g) = work.pop() {
        let mask = out[g];
        for &f in &callers[g] {
            let merged = out[f] | mask;
            if merged != out[f] {
                out[f] = merged;
                work.push(f);
            }
        }
    }
    out
}

/// Generate the r9/r10/r11 findings for a resolved call graph. Returns
/// `(file index, finding)` pairs; the finding is anchored at the effect
/// site (so one pragma at the hazard suppresses every chain through
/// it), and its message names an exemplar call chain from a render-path
/// entry point.
#[must_use]
pub fn transitive_findings(
    graph: &CallGraph,
    sites: &[Vec<EffectSite>],
) -> Vec<(usize, RawFinding)> {
    let n = graph.nodes.len();
    let direct: Vec<u8> = sites
        .iter()
        .map(|ss| ss.iter().fold(0u8, |m, s| m | s.effect))
        .collect();
    // Fixpoint first: if no render-path entry inherits a transitive
    // effect, the reachability walk (and its parent chains) is skipped
    // and only the direct contract-scope clauses below can fire.
    let inherited = propagate(&direct, &graph.edges);
    let transitive_live = graph
        .entries
        .iter()
        .any(|&e| inherited[e] & (NONDET | FLOAT_FOLD | UNORDERED_ITER) != 0);
    let (reach, parents) = if transitive_live {
        graph.reachable_from_entries()
    } else {
        (vec![false; n], vec![None; n])
    };
    let mut out = Vec::new();
    for idx in 0..graph.nodes.len() {
        let node = &graph.nodes[idx];
        let scope = graph.files[node.file].scope;
        let contract = matches!(scope.class, CrateClass::Contract { .. });
        let render = matches!(scope.class, CrateClass::Contract { render_path: true });
        for s in &sites[idx] {
            let chain = || graph.chain_text(idx, &parents);
            let finding = match s.effect {
                FLOAT_FOLD if contract => Some((
                    RuleId::R10,
                    format!(
                        "{} in contract fn `{}`: reduction order is implicit and can drift under \
                         iterator/shard changes; rewrite as an indexed loop or justify \
                         order-independence with a pragma",
                        s.what,
                        graph.qualified(idx)
                    ),
                )),
                FLOAT_FOLD if reach[idx] => Some((
                    RuleId::R10,
                    format!(
                        "{} reachable from the render path (call chain: {}); reduction order \
                         must be explicit or justified",
                        s.what,
                        chain()
                    ),
                )),
                NONDET if !render && reach[idx] => Some((
                    RuleId::R9,
                    format!(
                        "`{}` in `{}` is reachable from render-path code (call chain: {}); \
                         nondeterminism sources are banned anywhere the render path can reach",
                        s.what,
                        graph.qualified(idx),
                        chain()
                    ),
                )),
                UNORDERED_ITER if contract && !render => Some((
                    RuleId::R11,
                    format!(
                        "{} in contract fn `{}`; seeded iteration order can leak into ordered \
                         output — iterate a sorted view (BTreeMap, sorted Vec) instead",
                        s.what,
                        graph.qualified(idx)
                    ),
                )),
                UNORDERED_ITER if !render && reach[idx] => Some((
                    RuleId::R11,
                    format!(
                        "{} reachable from the render path (call chain: {}); iterate a sorted \
                         view instead",
                        s.what,
                        chain()
                    ),
                )),
                _ => None,
            };
            if let Some((rule, message)) = finding {
                out.push((
                    node.file,
                    RawFinding {
                        rule,
                        line: s.line,
                        col: s.col,
                        message,
                    },
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn effects_of(body_src: &str) -> (u8, Vec<EffectSite>) {
        let toks = tokenize(body_src);
        intrinsic_effects(&toks, (0, toks.len() - 1))
    }

    #[test]
    fn nondet_sites() {
        let (mask, sites) = effects_of("{ let t = Instant::now(); x.unwrap(); panic!(\"b\") }");
        assert_eq!(mask, NONDET);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].what, "Instant");
    }

    #[test]
    fn float_fold_needs_float_evidence() {
        let (m, _) = effects_of("{ let s: f32 = v.iter().sum(); }");
        assert_eq!(m & FLOAT_FOLD, FLOAT_FOLD, "binding annotation is evidence");
        let (m, _) = effects_of("{ let s = v.iter().sum::<f64>(); }");
        assert_eq!(m & FLOAT_FOLD, FLOAT_FOLD, "turbofish is evidence");
        let (m, _) = effects_of("{ let s = v.iter().fold(0.0f32, f32::max); }");
        assert_eq!(m & FLOAT_FOLD, FLOAT_FOLD, "float-literal init is evidence");
        let (m, _) = effects_of("{ let s: u64 = v.iter().map(|x| x as u64).sum(); }");
        assert_eq!(m & FLOAT_FOLD, 0, "integer reductions are exempt");
    }

    #[test]
    fn float_fold_evidence_survives_closure_braces() {
        // The `f64` annotation is outside the closure braces; the
        // balanced statement window must still reach it.
        let (m, _) = effects_of("{ let s: f64 = a.iter().map(|p| { let d = p.x; d * d }).sum(); }");
        assert_eq!(m & FLOAT_FOLD, FLOAT_FOLD);
    }

    #[test]
    fn plus_eq_fold_only_in_iterator_chain_loops() {
        let (m, _) = effects_of("{ for w in v.iter().skip(1) { acc += w * 0.5; } }");
        assert_eq!(m & FLOAT_FOLD, FLOAT_FOLD);
        // Indexed loops make the order explicit: the sanctioned rewrite.
        let (m, _) = effects_of("{ for i in 0..n { acc += v[i] * 0.5; } }");
        assert_eq!(m & FLOAT_FOLD, 0);
        // A `.len()` bound does not make an indexed loop a chain loop.
        let (m, _) = effects_of("{ for i in 0..v.len() { acc += v[i] * 0.5; } }");
        assert_eq!(m & FLOAT_FOLD, 0);
        // No float evidence in the statement: exempt.
        let (m, _) = effects_of("{ for w in v.iter() { count += w.len(); } }");
        assert_eq!(m & FLOAT_FOLD, 0);
    }

    #[test]
    fn unordered_iteration_is_binding_aware() {
        let (m, s) =
            effects_of("{ let m: HashMap<u32, f32> = build(); for k in m.keys() { use_it(k); } }");
        assert_eq!(m & UNORDERED_ITER, UNORDERED_ITER);
        assert!(s.iter().any(|s| s.what.contains("m.keys")));
        // `.iter()` on a Vec in the same statement as a HashMap type is
        // NOT iteration of the map.
        let (m, _) = effects_of("{ let d: HashMap<u32, f32> = fr.iter().copied().collect(); }");
        assert_eq!(m & UNORDERED_ITER, 0);
        // `for v in &set` without a method call.
        let (m, _) = effects_of("{ let set = HashSet::new(); for v in &set { go(v); } }");
        assert_eq!(m & UNORDERED_ITER, UNORDERED_ITER);
    }

    #[test]
    fn propagate_reaches_fixpoint_over_cycles() {
        // 0 -> 1 -> 2 -> 1 (cycle), 2 has NONDET; 3 isolated with FLOAT_FOLD.
        let direct = vec![0, 0, NONDET, FLOAT_FOLD];
        let callees = vec![vec![1], vec![2], vec![1], vec![]];
        let out = propagate(&direct, &callees);
        assert_eq!(out, vec![NONDET, NONDET, NONDET, FLOAT_FOLD]);
    }
}
