//! Workspace invariant linter, token-stream edition.
//!
//! Enforcement of repo-specific rules that `clippy` cannot express (run
//! with `cargo run -p analysis --bin lint`). Matching runs on the real
//! token stream from [`crate::lex`] — comments and string/char literal
//! contents never reach the rule matchers, nested block comments and
//! raw strings lex correctly, and `cfg(test)` exemption covers exactly
//! the attributed item (brace-matched), not "first `cfg(test)` to
//! end-of-file".
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `no-panic` | `crates/core/src`, `crates/nvmf/src`, `crates/workload/src` | no `panic!` / `unreachable!` / `todo!` / `unimplemented!` / `.unwrap()` / `.expect(` in non-test code: malformed wire input must become a counted protocol error, and a malformed scenario, spec or trace a typed error, not a crash (internal invariants may waive) |
//! | `no-threading` | all crates except the `shims` | no `static mut`, `thread_local!`, or `thread::spawn`: a simulation is single-threaded, and ad-hoc threads and mutable globals break reproducibility. Scoped `std::thread::scope` fan-out over independent simulations stays legal — seeds and grid points in the experiment drivers, a run's independent pairs in the workload runner — but not in `simkit`: the kernel spawns no thread of any kind |
//! | `wall-clock` | all crates except `simkit` and the `shims` | no `Instant` / `SystemTime`: simulations must be deterministic; real time enters only through `simkit` (e.g. its `Stopwatch`) |
//! | `hashmap-iter` | all crates | no iteration over `HashMap`s declared in the same file: iteration order is randomized per process and leaks nondeterminism into metrics, snapshots, and reports — use `BTreeMap`, sort first, or waive with a reason |
//! | `safety-comment` | all code incl. tests | every `unsafe` token is paired, by token span, with a `// SAFETY:` (or `# Safety` doc) comment: same line, or walking the token stream backwards through comments/attributes/signature tokens until the previous statement boundary (`;`, `{`, `}`) |
//! | `foreign-rand` | all crates except `simkit` and the `shims` | no `rand`-crate APIs (`thread_rng`, `StdRng`, …) or ad-hoc LCG multiplier constants: every random draw must flow from `simkit::rng` (seeded, forkable) or simulations stop being bit-reproducible |
//! | `no-payload-to_vec` | data-plane crates (`core`, `nvmf`, `nvme`, `fabric`, `queues`, `faults`) | no `.to_vec()` in non-test code: payloads travel as refcounted `Bytes` handles allocated once at issue (DESIGN.md §12), and a stray copy silently re-introduces per-request allocation |
//!
//! Waivers: `// lint: allow(<rule>) <reason>` — anchored, not
//! substring-matched: the waiver text must *start* a comment line
//! (after the `//`/`/*`/leading-`*` furniture), on the offending line
//! or in the contiguous run of comment-only lines directly above it. A
//! waiver mentioned mid-sentence, or inside a string literal, does not
//! count. `hashmap-iter` also accepts its dedicated `hashmap-iter-ok:`
//! marker.

use crate::lex::{lex, test_spans, Tok, TokKind};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// One rule violation (or, with `waived` set, a justified exception —
/// reported by the audit API for `--json` consumers, filtered out of
/// the blocking lint).
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule identifier (e.g. `no-panic`).
    pub rule: &'static str,
    /// File, relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong.
    pub detail: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// True if an anchored waiver comment covers this finding.
    pub waived: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file.display(),
            self.line,
            self.rule,
            self.detail,
            self.excerpt
        )
    }
}

/// Per-file lint context: token stream plus line-indexed views of it.
struct Ctx<'s> {
    src: &'s str,
    rel: &'s Path,
    rel_str: String,
    toks: Vec<Tok>,
    /// Indices into `toks` of non-comment tokens.
    code: Vec<usize>,
    /// 1-indexed by line (index 0 unused): line carries any code token.
    line_has_code: Vec<bool>,
    /// 1-indexed by line: stripped comment content lines on that line.
    comments: Vec<Vec<String>>,
    /// Byte spans of `#[cfg(test)]`-attributed items.
    tspans: Vec<Range<usize>>,
    in_test_file: bool,
    raw_lines: Vec<&'s str>,
}

/// Strip comment furniture: `//`(`/`|`!`), `/*`(`*`|`!`) … `*/`, and a
/// leading `*` on block-comment continuation lines. Returns one content
/// string per source line the comment token spans.
fn comment_content_lines(text: &str, kind: TokKind) -> Vec<String> {
    match kind {
        TokKind::LineComment => {
            let t = text.trim_start_matches('/');
            let t = t.strip_prefix('!').unwrap_or(t);
            vec![t.trim().to_string()]
        }
        TokKind::BlockComment => {
            let inner = text.strip_prefix("/*").unwrap_or(text);
            let inner = inner.strip_suffix("*/").unwrap_or(inner);
            let inner = inner.strip_prefix('*').unwrap_or(inner);
            let inner = inner.strip_prefix('!').unwrap_or(inner);
            inner
                .split('\n')
                .map(|l| l.trim().trim_start_matches('*').trim().to_string())
                .collect()
        }
        _ => Vec::new(),
    }
}

impl<'s> Ctx<'s> {
    fn new(rel: &'s Path, src: &'s str) -> Self {
        let toks = lex(src);
        let tspans = test_spans(src, &toks);
        let code: Vec<usize> = (0..toks.len())
            .filter(|&i| !toks[i].kind.is_comment())
            .collect();
        let nlines = src.lines().count() + 2;
        let mut line_has_code = vec![false; nlines + 1];
        let mut comments = vec![Vec::new(); nlines + 1];
        for tok in &toks {
            let text = tok.text(src);
            if tok.kind.is_comment() {
                for (k, content) in comment_content_lines(text, tok.kind)
                    .into_iter()
                    .enumerate()
                {
                    if let Some(slot) = comments.get_mut(tok.line + k) {
                        slot.push(content);
                    }
                }
            } else {
                let spanned = text.matches('\n').count();
                for l in tok.line..=tok.line + spanned {
                    if let Some(slot) = line_has_code.get_mut(l) {
                        *slot = true;
                    }
                }
            }
        }
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let in_test_file = rel_str.contains("/tests/")
            || rel_str.contains("/benches/")
            || rel_str.contains("/examples/");
        Ctx {
            src,
            rel,
            rel_str,
            toks,
            code,
            line_has_code,
            comments,
            tspans,
            in_test_file,
            raw_lines: src.lines().collect(),
        }
    }

    /// Text of the `ci`-th code token ("" past the end).
    fn t(&self, ci: usize) -> &str {
        self.code
            .get(ci)
            .map(|&i| self.toks[i].text(self.src))
            .unwrap_or("")
    }

    fn kind(&self, ci: usize) -> Option<TokKind> {
        self.code.get(ci).map(|&i| self.toks[i].kind)
    }

    fn line_of(&self, ci: usize) -> usize {
        self.code.get(ci).map(|&i| self.toks[i].line).unwrap_or(1)
    }

    /// Do the code tokens starting at `ci` match `pats` exactly?
    fn seq(&self, ci: usize, pats: &[&str]) -> bool {
        pats.iter().enumerate().all(|(k, p)| self.t(ci + k) == *p)
    }

    /// Is the `ci`-th code token inside test code?
    fn is_test(&self, ci: usize) -> bool {
        if self.in_test_file {
            return true;
        }
        let Some(&i) = self.code.get(ci) else {
            return false;
        };
        let at = self.toks[i].span.start;
        self.tspans.iter().any(|s| s.contains(&at))
    }

    /// Anchored waiver check: a comment content line starting with
    /// `lint: allow(<rule>)` or one of `markers`, on `line` itself or in
    /// the contiguous run of comment-only lines directly above.
    fn waived(&self, line: usize, rule: &str, markers: &[&str]) -> bool {
        let allow = format!("lint: allow({rule})");
        let hit = |l: usize| {
            self.comments.get(l).is_some_and(|cs| {
                cs.iter()
                    .any(|c| c.starts_with(&allow) || markers.iter().any(|m| c.starts_with(m)))
            })
        };
        if hit(line) {
            return true;
        }
        let mut l = line;
        while l > 1
            && !self.line_has_code[l - 1]
            && self.comments.get(l - 1).is_some_and(|c| !c.is_empty())
        {
            l -= 1;
            if hit(l) {
                return true;
            }
        }
        false
    }

    fn push(
        &self,
        out: &mut Vec<Finding>,
        rule: &'static str,
        line: usize,
        detail: String,
        waived: bool,
    ) {
        out.push(Finding {
            rule,
            file: self.rel.to_path_buf(),
            line,
            detail,
            excerpt: self
                .raw_lines
                .get(line.saturating_sub(1))
                .unwrap_or(&"")
                .trim()
                .to_string(),
            waived,
        });
    }
}

/// `no-panic`: protocol code and the scenario driver must return typed
/// errors, not crash.
fn rule_no_panic(ctx: &Ctx, out: &mut Vec<Finding>) {
    let in_scope = ["crates/core/src", "crates/nvmf/src", "crates/workload/src"]
        .iter()
        .any(|s| ctx.rel_str.contains(s));
    if !in_scope {
        return;
    }
    for ci in 0..ctx.code.len() {
        let what = if matches!(
            ctx.t(ci),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && ctx.t(ci + 1) == "!"
        {
            Some(format!("{}!", ctx.t(ci)))
        } else if ctx.t(ci) == "." && matches!(ctx.t(ci + 1), "unwrap" | "expect") {
            Some(format!(".{}()", ctx.t(ci + 1)))
        } else {
            None
        };
        let Some(what) = what else { continue };
        if ctx.is_test(ci) {
            continue;
        }
        let line = ctx.line_of(ci);
        let waived = ctx.waived(line, "no-panic", &[]);
        ctx.push(
            out,
            "no-panic",
            line,
            format!(
                "{what} in protocol/driver code — malformed input must be a counted \
                 protocol error or a typed error, not a crash (waive for internal \
                 invariants)"
            ),
            waived,
        );
    }
}

/// `no-threading`: no ad-hoc parallelism or mutable globals — a
/// simulation runs on one thread, and the only parallelism is scoped
/// fan-out over independent simulations: seeds and grid points in the
/// drivers, a run's independent pairs in the workload runner. The
/// kernel itself spawns nothing.
fn rule_no_threading(ctx: &Ctx, out: &mut Vec<Finding>) {
    if ctx.rel_str.contains("crates/shims/") {
        return;
    }
    let kernel = ctx.rel_str.contains("crates/simkit/");
    for ci in 0..ctx.code.len() {
        let what = if ctx.seq(ci, &["static", "mut"]) {
            Some("static mut")
        } else if ctx.seq(ci, &["thread_local", "!"]) {
            Some("thread_local!")
        } else if ctx.seq(ci, &["thread", ":", ":", "spawn"]) {
            Some("thread::spawn")
        } else if kernel && ctx.seq(ci, &["thread", ":", ":", "scope"]) {
            Some("thread::scope")
        } else {
            None
        };
        let Some(what) = what else { continue };
        if ctx.is_test(ci) {
            continue;
        }
        let line = ctx.line_of(ci);
        let waived = ctx.waived(line, "no-threading", &[]);
        ctx.push(
            out,
            "no-threading",
            line,
            format!(
                "{what}: a simulation is single-threaded — parallelism is scoped \
                 fan-out over independent simulations (`std::thread::scope`, never \
                 in the kernel); free threads and mutable globals break reproducibility"
            ),
            waived,
        );
    }
}

/// `wall-clock`: real time only enters through simkit.
fn rule_wall_clock(ctx: &Ctx, out: &mut Vec<Finding>) {
    if ctx.rel_str.contains("crates/simkit/") || ctx.rel_str.contains("crates/shims/") {
        return;
    }
    for ci in 0..ctx.code.len() {
        if ctx.kind(ci) != Some(TokKind::Ident)
            || !matches!(ctx.t(ci), "Instant" | "SystemTime")
            || ctx.is_test(ci)
        {
            continue;
        }
        let line = ctx.line_of(ci);
        let waived = ctx.waived(line, "wall-clock", &[]);
        let name = ctx.t(ci).to_string();
        ctx.push(
            out,
            "wall-clock",
            line,
            format!("{name}: wall-clock time outside simkit breaks determinism"),
            waived,
        );
    }
}

/// `foreign-rand`: all randomness flows from simkit::rng.
fn rule_foreign_rand(ctx: &Ctx, out: &mut Vec<Finding>) {
    if ctx.rel_str.contains("crates/simkit/") || ctx.rel_str.contains("crates/shims/") {
        return;
    }
    const LCG: &[&str] = &["6364136223846793005", "1103515245"];
    let mut lines = BTreeSet::new();
    for ci in 0..ctx.code.len() {
        let hit = (ctx.t(ci) == "rand" && ctx.seq(ci + 1, &[":", ":"]))
            || (ctx.kind(ci) == Some(TokKind::Ident)
                && matches!(
                    ctx.t(ci),
                    "thread_rng" | "from_entropy" | "StdRng" | "SmallRng" | "OsRng"
                ))
            || (ctx.kind(ci) == Some(TokKind::NumLit) && {
                let digits: String = ctx.t(ci).chars().filter(|&c| c != '_').collect();
                LCG.iter().any(|l| digits.contains(l))
            });
        if hit && !ctx.is_test(ci) {
            lines.insert(ctx.line_of(ci));
        }
    }
    for line in lines {
        let waived = ctx.waived(line, "foreign-rand", &[]);
        ctx.push(
            out,
            "foreign-rand",
            line,
            "randomness outside simkit::rng — use Kernel::rng() / Pcg32::fork so \
             runs stay seeded and bit-reproducible"
                .to_string(),
            waived,
        );
    }
}

/// `no-payload-to_vec`: the data plane moves `Bytes` handles, not copies.
fn rule_no_to_vec(ctx: &Ctx, out: &mut Vec<Finding>) {
    let in_scope = [
        "crates/core/src",
        "crates/nvmf/src",
        "crates/nvme/src",
        "crates/fabric/src",
        "crates/queues/src",
        "crates/faults/src",
    ]
    .iter()
    .any(|s| ctx.rel_str.contains(s));
    if !in_scope {
        return;
    }
    for ci in 0..ctx.code.len() {
        if !ctx.seq(ci, &[".", "to_vec", "("]) || ctx.is_test(ci) {
            continue;
        }
        let line = ctx.line_of(ci);
        let waived = ctx.waived(line, "no-payload-to_vec", &[]);
        ctx.push(
            out,
            "no-payload-to_vec",
            line,
            ".to_vec() on the data plane: payloads are shared `Bytes` handles — \
             copying re-introduces per-request allocation (DESIGN.md §12)"
                .to_string(),
            waived,
        );
    }
}

/// `hashmap-iter`: no iteration over `HashMap`s declared in this file.
fn rule_hashmap_iter(ctx: &Ctx, out: &mut Vec<Finding>) {
    // Pass 1: identifiers declared as HashMap — `name: [path::]HashMap`
    // fields/bindings and `name = [path::]HashMap` initializations.
    let mut idents: BTreeSet<String> = BTreeSet::new();
    for ci in 0..ctx.code.len() {
        if ctx.t(ci) != "HashMap" {
            continue;
        }
        // Walk back over a `seg :: seg :: HashMap` path to its start.
        let mut s = ci;
        while s >= 3
            && ctx.t(s - 1) == ":"
            && ctx.t(s - 2) == ":"
            && ctx.kind(s - 3) == Some(TokKind::Ident)
        {
            s -= 3;
        }
        if s < 2 {
            continue;
        }
        let before = ctx.t(s - 1);
        let single_colon = before == ":" && (s < 2 || ctx.t(s.wrapping_sub(2)) != ":");
        if (single_colon || before == "=") && ctx.kind(s - 2) == Some(TokKind::Ident) {
            let name = ctx.t(s - 2);
            if name != "mut" && !name.chars().next().is_some_and(|c| c.is_numeric()) {
                idents.insert(name.to_string());
            }
        }
    }
    if idents.is_empty() {
        return;
    }
    const ITER_METHODS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "into_iter",
        "into_keys",
        "into_values",
        "retain",
    ];
    // Pass 2: iteration sites — one finding per line.
    let mut hits: Vec<(usize, String)> = Vec::new();
    for ci in 0..ctx.code.len() {
        // `map.keys()` method form.
        if ctx.kind(ci) == Some(TokKind::Ident)
            && idents.contains(ctx.t(ci))
            && ctx.t(ci + 1) == "."
            && ITER_METHODS.contains(&ctx.t(ci + 2))
            && ctx.t(ci + 3) == "("
            && !ctx.is_test(ci)
        {
            hits.push((ctx.line_of(ci), ctx.t(ci).to_string()));
        }
        // `for … in [&][mut ][self.]map` form (a trailing `.` or `(`
        // means a method call or fn result, handled above / not ours).
        if ctx.t(ci) == "in" {
            let mut j = ci + 1;
            while ctx.t(j) == "&" {
                j += 1;
            }
            if ctx.t(j) == "mut" {
                j += 1;
            }
            if ctx.t(j) == "self" && ctx.t(j + 1) == "." {
                j += 2;
            }
            if ctx.kind(j) == Some(TokKind::Ident)
                && idents.contains(ctx.t(j))
                && ctx.t(j + 1) != "."
                && ctx.t(j + 1) != "("
                && !ctx.is_test(j)
            {
                hits.push((ctx.line_of(j), ctx.t(j).to_string()));
            }
        }
    }
    let mut seen_lines = BTreeSet::new();
    for (line, ident) in hits {
        if !seen_lines.insert(line) {
            continue;
        }
        let waived = ctx.waived(line, "hashmap-iter", &["hashmap-iter-ok:"]);
        ctx.push(
            out,
            "hashmap-iter",
            line,
            format!(
                "iteration over HashMap `{ident}`: order is nondeterministic — \
                 use BTreeMap, sort, or waive with a reason"
            ),
            waived,
        );
    }
}

/// `safety-comment`: pair every `unsafe` with a SAFETY comment by token
/// span — same line, or backwards through comments/attributes/signature
/// tokens until the previous statement boundary.
fn rule_safety_comment(ctx: &Ctx, out: &mut Vec<Finding>) {
    let safety = |t: &Tok| {
        let text = t.text(ctx.src);
        text.contains("SAFETY") || text.contains("# Safety")
    };
    for ti in 0..ctx.toks.len() {
        let tok = &ctx.toks[ti];
        if tok.kind != TokKind::Ident || tok.text(ctx.src) != "unsafe" {
            continue;
        }
        // Same-line comment (before or after the unsafe token).
        let mut ok = ctx
            .toks
            .iter()
            .any(|t| t.kind.is_comment() && t.line == tok.line && safety(t));
        // Token-span walk backwards: comments and attribute/signature
        // tokens are transparent; `;` / `{` / `}` end the search at the
        // previous statement boundary.
        let mut j = ti;
        while !ok && j > 0 {
            j -= 1;
            let prev = &ctx.toks[j];
            if prev.kind.is_comment() {
                if safety(prev) {
                    ok = true;
                }
                continue;
            }
            if matches!(prev.text(ctx.src), ";" | "{" | "}") {
                break;
            }
        }
        if ok {
            continue;
        }
        let line = tok.line;
        let waived = ctx.waived(line, "safety-comment", &[]);
        ctx.push(
            out,
            "safety-comment",
            line,
            "`unsafe` without a paired `// SAFETY:` (or `# Safety` doc) comment".to_string(),
            waived,
        );
    }
}

/// Audit one file: every finding, including waived ones.
pub fn audit_source(rel: &Path, src: &str) -> Vec<Finding> {
    let ctx = Ctx::new(rel, src);
    let mut out = Vec::new();
    rule_no_panic(&ctx, &mut out);
    rule_no_threading(&ctx, &mut out);
    rule_wall_clock(&ctx, &mut out);
    rule_foreign_rand(&ctx, &mut out);
    rule_no_to_vec(&ctx, &mut out);
    rule_safety_comment(&ctx, &mut out);
    rule_hashmap_iter(&ctx, &mut out);
    out.sort_by_key(|f| f.line);
    out
}

/// Lint one file: unwaived violations only.
pub fn lint_source(rel: &Path, src: &str) -> Vec<Finding> {
    audit_source(rel, src)
        .into_iter()
        .filter(|f| !f.waived)
        .collect()
}

/// Recursively collect `.rs` files under `dir`, skipping build output and
/// VCS metadata.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Audit every `.rs` file under `root`: all findings, waived included,
/// sorted by path and line.
pub fn audit_workspace(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    collect_rs(root, &mut files);
    let mut findings = Vec::new();
    for path in files {
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path.strip_prefix(root).unwrap_or(&path);
        findings.extend(audit_source(rel, &src));
    }
    findings
}

/// Lint every `.rs` file under `root` (the workspace checkout). Findings
/// are sorted by path and line; empty means the workspace is clean.
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    audit_workspace(root)
        .into_iter()
        .filter(|f| !f.waived)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<Finding> {
        lint_source(Path::new(rel), src)
    }

    #[test]
    fn no_panic_rule_and_waiver() {
        let src = "fn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let f = lint("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-panic");

        let waived =
            "// lint: allow(no-panic) internal invariant: set two lines up\nfn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        assert!(lint("crates/nvmf/src/x.rs", waived).is_empty());
        // unwrap_or_else must not match.
        assert!(lint(
            "crates/core/src/x.rs",
            "fn f(o: Option<u8>) -> u8 { o.unwrap_or_else(|| 0) }\n"
        )
        .is_empty());
        // The new ports: unreachable!/todo!/unimplemented! are crashes too.
        for bad in ["unreachable!(\"x\")", "todo!()", "unimplemented!()"] {
            let src = format!("fn f() {{ {bad} }}\n");
            let f = lint("crates/nvmf/src/x.rs", &src);
            assert_eq!(f.len(), 1, "{bad}: {f:?}");
            assert_eq!(f[0].rule, "no-panic");
        }
        // The scenario driver is in scope; crates above it are not.
        assert_eq!(lint("crates/workload/src/x.rs", src).len(), 1);
        assert!(lint("crates/experiments/src/x.rs", src).is_empty());
    }

    #[test]
    fn waiver_in_string_does_not_waive() {
        // The waiver text inside a string literal is data, not a waiver.
        let src = "fn f(o: Option<u8>) -> u8 {\n    let _msg = \"lint: allow(no-panic) not a real waiver\";\n    o.unwrap()\n}\n";
        let f = lint("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-panic");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn waiver_mentioned_mid_comment_does_not_waive() {
        // A comment that merely *mentions* the waiver syntax must not
        // waive — the old substring engine honored this.
        let src = "// see lint: allow(no-panic) in target.rs for the pattern\nfn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let f = lint("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        // Anchored at comment start still works, including block form.
        let ok = "/* lint: allow(no-panic) internal invariant */\nfn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        assert!(lint("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn audit_reports_waived_findings() {
        let src = "// lint: allow(no-panic) internal invariant\nfn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let all = audit_source(Path::new("crates/core/src/x.rs"), src);
        assert_eq!(all.len(), 1);
        assert!(all[0].waived);
        assert!(lint("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_region_is_exempt_and_precisely_scoped() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); }\n}\n";
        assert!(lint("crates/core/src/x.rs", src).is_empty());
        let in_tests_dir = "fn t() { let _x: Option<Instant> = None; }\n";
        assert!(lint("crates/core/tests/x.rs", in_tests_dir).is_empty());
        // Precision: code *after* a cfg(test) module is production again
        // (the old first-cfg(test)-to-EOF heuristic exempted it).
        let after = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let f = lint("crates/core/src/x.rs", after);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-panic");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn no_threading_rule() {
        for (bad, name) in [
            ("static mut COUNTER: u64 = 0;\n", "static mut"),
            ("thread_local! { static X: u8 = 0; }\n", "thread_local!"),
            ("fn f() { std::thread::spawn(|| {}); }\n", "thread::spawn"),
        ] {
            let f = lint("crates/core/src/x.rs", bad);
            assert!(
                f.iter().any(|x| x.rule == "no-threading"),
                "{name} must be flagged: {f:?}"
            );
        }
        // Scoped spawns over independent simulations are legal — the
        // experiment drivers' grid points and the workload runner's
        // groups: `s.spawn` has no `thread::` path. A free spawn is still
        // a finding in either.
        let scoped = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        for file in [
            "crates/experiments/src/x.rs",
            "crates/workload/src/runner.rs",
        ] {
            assert!(lint(file, scoped).iter().all(|x| x.rule != "no-threading"));
            assert!(lint(file, spawn).iter().any(|x| x.rule == "no-threading"));
        }
        // No crate is a sanctioned home, the tooling included.
        assert!(lint("crates/analysis/src/x.rs", spawn)
            .iter()
            .any(|x| x.rule == "no-threading"));
        // The kernel spawns no thread of any kind: free and scoped
        // spawns are both findings in simkit.
        for src in [spawn, scoped] {
            let f = lint("crates/simkit/src/x.rs", src);
            assert!(f.iter().any(|x| x.rule == "no-threading"), "{src}: {f:?}");
        }
        // Test code is exempt.
        assert!(lint("crates/queues/tests/x.rs", spawn).is_empty());
    }

    #[test]
    fn wall_clock_outside_simkit() {
        let src = "fn f() { let _t = std::time::Instant::now(); }\n";
        let f = lint("crates/experiments/src/bin/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
        assert!(lint("crates/simkit/src/time.rs", src).is_empty());
        // `Instant` in a string or comment does not trip the token rule.
        assert!(lint(
            "crates/experiments/src/x.rs",
            "// Instant is banned here\nfn f() { let _ = \"Instant\"; }\n"
        )
        .is_empty());
    }

    #[test]
    fn hashmap_iteration_flagged() {
        let src = "use std::collections::HashMap;\nstruct S { conns: HashMap<u16, u8> }\nimpl S {\n    fn metrics(&self) -> Vec<u16> { self.conns.keys().copied().collect() }\n}\n";
        let f = lint("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hashmap-iter");
        assert_eq!(f[0].line, 4);

        // for-loop form on a local.
        let src2 =
            "fn f() {\n    let m = HashMap::new;\n    let m = HashMap::new();\n    for (k, v) in &m { let _ = (k, v); }\n}\n";
        let f2 = lint("crates/core/src/x.rs", src2);
        assert_eq!(f2.len(), 1, "{f2:?}");

        // Lookup (no iteration) is fine.
        let src3 = "struct S { conns: HashMap<u16, u8> }\nimpl S {\n    fn get(&self, k: u16) -> Option<&u8> { self.conns.get(&k) }\n}\n";
        assert!(lint("crates/core/src/x.rs", src3).is_empty());

        // Waived.
        let src4 = "struct S { conns: HashMap<u16, u8> }\nimpl S {\n    fn all(&self) -> Vec<u16> {\n        // hashmap-iter-ok: sorted below\n        let mut v: Vec<u16> = self.conns.keys().copied().collect();\n        v.sort_unstable(); v\n    }\n}\n";
        assert!(
            lint("crates/core/src/x.rs", src4).is_empty(),
            "{:?}",
            lint("crates/core/src/x.rs", src4)
        );
    }

    #[test]
    fn foreign_rand_flagged() {
        let src = "fn f() -> u32 { rand::thread_rng().gen() }\n";
        let f = lint("crates/workload/src/x.rs", src);
        assert!(
            f.iter().any(|x| x.rule == "foreign-rand"),
            "rand:: path use must be flagged: {f:?}"
        );

        // Ad-hoc LCG with digit-group underscores.
        let lcg =
            "fn f(s: u64) -> u64 { s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) }\n";
        assert_eq!(lint("crates/workload/src/x.rs", lcg).len(), 1);
        let posix = "fn f(s: u32) -> u32 { s.wrapping_mul(1103515245).wrapping_add(12345) }\n";
        assert_eq!(lint("crates/nvme/src/x.rs", posix).len(), 1);

        // Sanctioned homes: simkit's own PCG and the deterministic
        // proptest shim.
        assert!(lint("crates/simkit/src/rng.rs", lcg).is_empty());
        assert!(lint("crates/shims/proptest/src/lib.rs", lcg).is_empty());

        // Test code is exempt; waivers work; comments/strings don't trip;
        // identifiers merely ending in "rand" don't trip.
        assert!(lint("crates/workload/tests/x.rs", src).is_empty());
        let waived = "// lint: allow(foreign-rand) vendored reference constant\nfn f(s: u32) -> u32 { s.wrapping_mul(1103515245) }\n";
        assert!(lint("crates/workload/src/x.rs", waived).is_empty());
        assert!(lint(
            "crates/workload/src/x.rs",
            "// rand::thread_rng is banned here\nfn f() { let _ = \"StdRng\"; }\n"
        )
        .is_empty());
        assert!(lint("crates/workload/src/x.rs", "fn f() { operand::eval(); }\n").is_empty());
    }

    #[test]
    fn payload_to_vec_flagged_on_data_plane() {
        let src = "fn f(b: &Bytes) -> Vec<u8> { b.to_vec() }\n";
        for scope in [
            "crates/core/src/x.rs",
            "crates/nvmf/src/x.rs",
            "crates/nvme/src/x.rs",
            "crates/fabric/src/x.rs",
            "crates/queues/src/x.rs",
            "crates/faults/src/x.rs",
        ] {
            let f = lint(scope, src);
            assert!(
                f.iter().any(|x| x.rule == "no-payload-to_vec"),
                "{scope}: {f:?}"
            );
        }
        // Off the data plane (reports, experiments) copies are fine.
        assert!(lint("crates/workload/src/x.rs", src).is_empty());
        assert!(lint("crates/experiments/src/x.rs", src).is_empty());
        // Test code is exempt.
        assert!(lint(
            "crates/nvmf/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(b: &Bytes) -> Vec<u8> { b.to_vec() }\n}\n"
        )
        .is_empty());
        // The single sanctioned site is waived with a reason.
        let waived = "// lint: allow(no-payload-to_vec) copy-on-write: corrupt must not\n// mutate the shared buffer\nfn f(b: &Bytes) -> Vec<u8> { b.to_vec() }\n";
        assert!(lint("crates/faults/src/x.rs", waived).is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let f = lint("crates/queues/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "safety-comment");

        let ok = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees validity\n    unsafe { *p }\n}\n";
        assert!(lint("crates/queues/src/x.rs", ok).is_empty());

        // Applies inside test code too.
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn t(p: *const u8) -> u8 { unsafe { *p } }\n}\n";
        assert_eq!(lint("crates/queues/src/x.rs", in_test).len(), 1);

        // `unsafe impl` with the comment directly above, through an
        // attribute.
        let imp =
            "// SAFETY: T is Send\n#[allow(dead_code)]\nunsafe impl<T: Send> Send for X<T> {}\n";
        assert!(lint("crates/queues/src/x.rs", imp).is_empty());

        // Token-span pairing: a SAFETY comment separated from the
        // `unsafe` by a complete statement does not cover it.
        let stale = "fn f(p: *const u8) -> u8 {\n    // SAFETY: covers something else\n    let _x = 1;\n    unsafe { *p }\n}\n";
        let f = lint("crates/queues/src/x.rs", stale);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);

        // Doc-comment `# Safety` on an unsafe fn counts.
        let doc = "/// # Safety\n/// `p` must be valid for reads.\npub unsafe fn read(p: *const u8) -> u8 { *p }\n";
        assert!(lint("crates/queues/src/x.rs", doc)
            .iter()
            .all(|x| x.rule != "safety-comment"));
    }
}
