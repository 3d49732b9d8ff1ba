//! Lexer edge cases through the public lint API: each case is a shape
//! the old line-splitting engine got wrong or could only approximate,
//! asserted here end-to-end (source → tokens → rule verdict).

use analysis::lex::{lex, test_spans, TokKind};
use analysis::lint::lint_source;
use std::path::Path;

fn lint(rel: &str, src: &str) -> Vec<analysis::lint::Finding> {
    lint_source(Path::new(rel), src)
}

#[test]
fn nested_block_comments_do_not_leak_into_code() {
    // The inner `*/` must not close the outer comment and expose
    // `.unwrap()` as code.
    let src = "/* outer /* inner */ still comment .unwrap() */\nfn f() {}\n";
    assert!(lint("crates/core/src/x.rs", src).is_empty());
    let toks = lex(src);
    assert_eq!(
        toks.iter()
            .filter(|t| t.kind == TokKind::BlockComment)
            .count(),
        1
    );
}

#[test]
fn raw_string_with_embedded_line_comment_is_all_literal() {
    // `//` inside r#"…"# is string content: the `.unwrap()` after it on
    // the same line is real code and must be flagged.
    let src = "fn f(o: Option<u8>) -> u8 {\n    let _p = r#\"path // not a comment\"#;\n    o.unwrap()\n}\n";
    let f = lint("crates/core/src/x.rs", src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "no-panic");
    assert_eq!(f[0].line, 3);
}

#[test]
fn quote_char_literal_does_not_open_a_string() {
    // `'"'` must lex as a char literal; if it opened a string, the
    // `.unwrap()` after it would vanish into literal content.
    let src = "fn f(c: char, o: Option<u8>) -> u8 { if c == '\"' { o.unwrap() } else { 0 } }\n";
    let f = lint("crates/core/src/x.rs", src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "no-panic");
}

#[test]
fn cfg_test_inner_module_scopes_precisely() {
    // A cfg(test) module in the *middle* of a file exempts only its own
    // span: the old first-match-to-EOF heuristic exempted everything
    // after it, hiding the second unwrap.
    let src = "\
#[cfg(test)]
mod early_tests {
    #[test]
    fn t(o: Option<u8>) { o.unwrap(); }
}

fn production(o: Option<u8>) -> u8 { o.unwrap() }
";
    let f = lint("crates/core/src/x.rs", src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].line, 7);

    let spans = test_spans(src, &lex(src));
    assert_eq!(spans.len(), 1);
    assert!(src[spans[0].clone()].contains("early_tests"));
    assert!(!src[spans[0].clone()].contains("production"));
}

#[test]
fn waiver_inside_string_literal_is_inert() {
    // The satellite's acceptance case: a string literal spelling the
    // waiver syntax must not waive anything (the old engine matched
    // waivers by substring over loosely-split lines).
    let src = "fn f(o: Option<u8>) -> u8 {\n    let _doc = \"waive with lint: allow(no-panic) like so\";\n    o.unwrap()\n}\n";
    let f = lint("crates/core/src/x.rs", src);
    assert_eq!(f.len(), 1, "waiver-in-string must not waive: {f:?}");
    assert_eq!(f[0].line, 3);
}

#[test]
fn every_ported_rule_still_fires() {
    // One minimal positive case per rule: a port that silently stopped
    // matching would pass the clean-workspace test while enforcing
    // nothing.
    let cases: &[(&str, &str, &str)] = &[
        (
            "no-threading",
            "crates/queues/src/x.rs",
            "fn f(a: &AtomicUsize) { a.load(Ordering::SeqCst); std::thread::spawn(|| {}); }\n",
        ),
        (
            "no-panic",
            "crates/nvmf/src/x.rs",
            "fn f() { panic!(\"boom\"); }\n",
        ),
        (
            "no-threading",
            "crates/workload/src/x.rs",
            "fn f() { std::thread::spawn(|| {}); }\n",
        ),
        (
            "wall-clock",
            "crates/experiments/src/x.rs",
            "fn f() { let _ = std::time::SystemTime::now(); }\n",
        ),
        (
            "foreign-rand",
            "crates/workload/src/x.rs",
            "fn f() -> u64 { rand::random() }\n",
        ),
        (
            "no-payload-to_vec",
            "crates/fabric/src/x.rs",
            "fn f(b: &[u8]) -> Vec<u8> { b.to_vec() }\n",
        ),
        (
            "safety-comment",
            "crates/queues/src/x.rs",
            "fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
        ),
        (
            "hashmap-iter",
            "crates/core/src/x.rs",
            "struct S { m: HashMap<u8, u8> }\nimpl S { fn f(&self) -> usize { self.m.iter().count() } }\n",
        ),
    ];
    for (rule, rel, src) in cases {
        let f = lint(rel, src);
        assert!(
            f.iter().any(|x| x.rule == *rule),
            "rule {rule} no longer fires on {rel}: {f:?}"
        );
    }
}
